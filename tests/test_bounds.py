import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graftcert import (
    Box,
    DomainError,
    GraftPlan,
    Network,
    NeuronStatus,
    SplitAssignment,
    UsageError,
    apply_graft,
    build_specs,
    classify_neurons,
    compute_bounds,
    crown_lower_bound,
    forward_batch,
    ibp,
    input_region,
    interval_spec_lower,
    tally_stability,
)
from graftcert.bounds import (
    FORCED_ACTIVE,
    FORCED_INACTIVE,
    FREE,
    LayerBounds,
    _affine_interval,
    _backward,
    _bound_children,
    _branch_on,
    _domain_lines,
    _box_sums,
    _clamp_split,
    _corner,
    _graft_interval,
    _interval_lower,
    _ibp_boxes,
    _relaxation_lines,
    _ROW_BLOCK,
    _rows_matmul,
    _sign_split,
    _spec_lower,
    intersect_bounds,
)

from conftest import (
    ROUNDING_CROSS_CASES,
    block_product,
    manual_layer,
    per_row_products,
    random_net,
    rounding_cross_case,
)


def closed_form_box_min(coeffs, const, box):
    c = np.asarray(coeffs)
    return float(np.where(c > 0, c * box.lower, c * box.upper).sum() + const)


class TestInputRegion:
    def test_zero_radius(self):
        box = input_region(np.array([0.5]), 0.0)
        assert box.lower[0] == 0.5 and box.upper[0] == 0.5

    def test_clip_arithmetic(self):
        box = input_region(np.array([0.0, 1.0]), 0.1, clip=(0.0, 1.0))
        assert np.allclose(box.lower, [0.0, 0.9])
        assert np.allclose(box.upper, [0.1, 1.0])

    def test_pixel_scale_radius(self):
        # the common image-domain radius 2/255
        box = input_region(np.array([0.2]), 2 / 255)
        assert box.lower[0] == pytest.approx(0.2 - 2 / 255)
        assert box.upper[0] == pytest.approx(0.2 + 2 / 255)

    def test_negative_eps_rejected(self):
        with pytest.raises(DomainError):
            input_region(np.array([0.0]), -0.1)

    def test_inverted_clip_rejected(self):
        with pytest.raises(DomainError):
            input_region(np.array([0.0]), 0.1, clip=(1.0, 0.0))

    @given(
        x0=st.lists(st.floats(-5, 5), min_size=1, max_size=4),
        eps=st.floats(0, 2),
    )
    @settings(max_examples=50, deadline=None)
    def test_box_always_well_formed(self, x0, eps):
        box = input_region(np.array(x0), eps)
        assert np.all(box.lower <= box.upper)


class TestIbp:
    def test_single_layer_interval(self):
        net = Network([manual_layer([[1.0, -1.0]], [0.0])])
        inter = ibp(net, Box(np.zeros(2), np.ones(2)))
        assert inter.lower[0][0] == -1.0
        assert inter.upper[0][0] == 1.0

    def test_activation_interval_maps(self):
        # ReLU clamps; a grafted negative slope swaps the endpoints
        net = Network([manual_layer([[2.0]], [0.0]), manual_layer([[1.0]], [0.0])])
        box = Box(np.array([-0.5]), np.array([0.5]))
        inter = ibp(net, box)
        assert (inter.lower[1][0], inter.upper[1][0]) == (0.0, 1.0)
        grafted = apply_graft(net, GraftPlan((0,), ((1.0, 0.0),), -0.5, 0.25))
        gi = ibp(grafted, box)
        assert gi.lower[1][0] == pytest.approx(-0.25)
        assert gi.upper[1][0] == pytest.approx(0.75)

    @pytest.mark.parametrize("seed", range(5))
    def test_monte_carlo_containment(self, seed):
        net = random_net(600 + seed, widths=[2, 4, 2])
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(0, 1, 2)
        box = input_region(x0, 0.3)
        inter = ibp(net, box)
        xs = box.sample(rng, 10_000)
        _, pre, _ = forward_batch(net, xs)
        for h in range(len(net.layers)):
            assert np.all(pre[h] >= inter.lower[h] - 1e-9)
            assert np.all(pre[h] <= inter.upper[h] + 1e-9)

    def test_forced_inactive_records_intersection(self):
        net = random_net(601, widths=[2, 3, 2])
        box = input_region(np.array([0.5, 0.5]), 0.5)
        base = ibp(net, box)
        j = int(np.argmax(base.upper[0]))  # a neuron with positive upper
        split = SplitAssignment.free(net).force(net, j, FORCED_INACTIVE)
        inter = ibp(net, box, split)
        assert inter.upper[0][j] <= 0.0

    def test_contradictory_split_is_infeasible_signal(self):
        # force inactive a neuron whose lower bound is strictly positive
        net = Network([manual_layer([[1.0]], [5.0]), manual_layer([[1.0]], [0.0])])
        box = Box(np.array([0.0]), np.array([1.0]))
        split = SplitAssignment.free(net).force(net, 0, FORCED_INACTIVE)
        inter = ibp(net, box, split)
        assert not inter.feasible
        assert crown_lower_bound(net, box, split, inter, np.array([1.0])) == np.inf

    def test_grafted_neuron_cannot_be_forced(self):
        net = apply_graft(random_net(602), GraftPlan((0,), ((0.1, 0.0),)))
        with pytest.raises(UsageError):
            SplitAssignment.free(net).force(net, 0, FORCED_ACTIVE)


class TestCrown:
    def test_exact_on_fully_grafted(self):
        for seed in range(10):
            net = random_net(700 + seed, widths=[3, 4, 3, 2])
            rng = np.random.default_rng(seed)
            plan = GraftPlan(
                tuple(range(net.num_hidden)), ((1.0, 0.0),),
                float(rng.uniform(-0.5, 0.8)), float(rng.uniform(-0.3, 0.3)),
            )
            net = apply_graft(net, plan)
            box = input_region(rng.uniform(0, 1, 3), 0.25)
            coeffs = rng.normal(0, 1, 2)
            const = float(rng.normal())
            inter = ibp(net, box)
            got = crown_lower_bound(net, box, None, inter, coeffs, const)
            # closed form: fold the exact affine chain
            A = coeffs.copy()[None, :]
            d = np.array([const])
            for i in range(len(net.layers) - 1, -1, -1):
                d = d + A @ net.layers[i].bias
                A = A @ net.layers[i].weight
                if i > 0:
                    d = d + (A * net.intercepts[i - 1]).sum(axis=1)
                    A = A * net.slopes[i - 1]
            expected = closed_form_box_min(A[0], d[0], box)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_unstable_secant_line(self):
        # l=-1, u=1: the upper relaxation line is 0.5 z + 0.5, so the bound
        # of a functional picking the post-activation with coeff -1 equals
        # -(0.5 u + 0.5) = -1 at z=u.
        net = Network([manual_layer([[1.0]], [0.0]), manual_layer([[-1.0]], [0.0])])
        box = Box(np.array([-1.0]), np.array([1.0]))
        inter = ibp(net, box)
        got = crown_lower_bound(net, box, None, inter, np.array([1.0]))
        # spec = -relu(z); upper line 0.5 z + 0.5 at z = 1 gives -1
        assert got == pytest.approx(-1.0, abs=1e-12)
        # the relaxation lines themselves: secant above, same slope below
        from graftcert.bounds import _relaxation_lines

        slope, li, ui, unstable = _relaxation_lines(net, inter, SplitAssignment.free(net), 0)
        assert (slope[0], li[0], ui[0], unstable[0]) == (0.5, 0.0, 0.5, True)
        # the upper line passes through (-1, 0) and (1, 1)
        assert slope[0] * -1 + ui[0] == pytest.approx(0.0)
        assert slope[0] * 1 + ui[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(30))
    def test_sound_and_dominant_on_random_nets(self, seed):
        rng = np.random.default_rng(1000 + seed)
        net = random_net(1000 + seed, graft_fraction=float(rng.uniform(0, 0.5)))
        x0 = rng.uniform(0, 1, net.input_dim)
        box = input_region(x0, float(rng.uniform(0.05, 0.5)))
        coeffs = rng.normal(0, 1, net.output_dim)
        const = float(rng.normal())
        inter = ibp(net, box)
        lb = crown_lower_bound(net, box, None, inter, coeffs, const)
        # dominance over the pure interval bound
        assert lb >= interval_spec_lower(inter, coeffs, const) - 1e-9
        # soundness against sampling
        xs = box.sample(rng, 2000)
        vals = forward_batch(net, xs)[0] @ coeffs + const
        assert vals.min() >= lb - 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_monotone_in_radius(self, seed):
        rng = np.random.default_rng(1100 + seed)
        net = random_net(1100 + seed)
        x0 = rng.uniform(0, 1, net.input_dim)
        coeffs = rng.normal(0, 1, net.output_dim)
        bounds = []
        for eps in (0.05, 0.1, 0.2, 0.4):
            box = input_region(x0, eps)
            bounds.append(crown_lower_bound(net, box, None, ibp(net, box), coeffs))
        assert all(a >= b - 1e-9 for a, b in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize("seed", range(10))
    def test_crown_refined_intermediates_tighter_and_sound(self, seed):
        rng = np.random.default_rng(1200 + seed)
        net = random_net(1200 + seed)
        box = input_region(rng.uniform(0, 1, net.input_dim), 0.3)
        loose = ibp(net, box)
        tight = compute_bounds(net, box, method="crown")
        for h in range(len(net.layers)):
            assert np.all(tight.lower[h] >= loose.lower[h] - 1e-9)
            assert np.all(tight.upper[h] <= loose.upper[h] + 1e-9)
        xs = box.sample(rng, 4000)
        _, pre, _ = forward_batch(net, xs)
        for h in range(len(net.layers)):
            assert np.all(pre[h] >= tight.lower[h] - 1e-9)
            assert np.all(pre[h] <= tight.upper[h] + 1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_split_constrained_soundness(self, seed):
        # bound holds over the subregion that satisfies the forced signs
        rng = np.random.default_rng(1300 + seed)
        net = random_net(1300 + seed, widths=[2, 5, 4, 2])
        box = input_region(rng.uniform(0, 1, 2), 0.4)
        base = ibp(net, box)
        status = classify_neurons(base, SplitAssignment.free(net))
        unstable = np.flatnonzero(status == NeuronStatus.UNSTABLE)
        if unstable.size == 0:
            pytest.skip("no unstable neuron for this seed")
        j = int(unstable[0])
        h, off = net.neuron_location(j)
        coeffs = rng.normal(0, 1, 2)
        for direction in (FORCED_ACTIVE, FORCED_INACTIVE):
            split = SplitAssignment.free(net).force(net, j, direction)
            inter = ibp(net, box, split)
            lb = crown_lower_bound(net, box, split, inter, coeffs)
            xs = box.sample(rng, 20_000)
            _, pre, _ = forward_batch(net, xs)
            mask = pre[h][:, off] >= 0 if direction == FORCED_ACTIVE else pre[h][:, off] <= 0
            if mask.any():
                vals = forward_batch(net, xs[mask])[0] @ coeffs
                assert vals.min() >= lb - 1e-9

    def test_subdomain_bounds_monotone_under_split(self):
        # the verifier's domain bound (recomputed bound clamped by the
        # parent's) never decreases when a free unstable neuron is forced
        for seed in range(15):
            rng = np.random.default_rng(1400 + seed)
            net = random_net(1400 + seed)
            box = input_region(rng.uniform(0, 1, net.input_dim), 0.3)
            free = SplitAssignment.free(net)
            base = ibp(net, box)
            coeffs = rng.normal(0, 1, net.output_dim)
            parent = crown_lower_bound(net, box, free, base, coeffs)
            status = classify_neurons(base, free)
            for j in np.flatnonzero(status == NeuronStatus.UNSTABLE)[:4]:
                for direction in (FORCED_ACTIVE, FORCED_INACTIVE):
                    split = free.force(net, int(j), direction)
                    inter = intersect_bounds(ibp(net, box, split), base)
                    # recomputed intermediate bounds are elementwise tighter
                    for h in range(len(net.layers)):
                        assert np.all(inter.lower[h] >= base.lower[h] - 1e-12)
                        assert np.all(inter.upper[h] <= base.upper[h] + 1e-12)
                    child = max(
                        crown_lower_bound(net, box, split, inter, coeffs), parent
                    )
                    assert child >= parent


def _same_bytes(a: LayerBounds, b: LayerBounds) -> bool:
    return a.feasible == b.feasible and all(
        x.tobytes() == y.tobytes() for x, y in zip(a.lower + a.upper, b.lower + b.upper)
    )


def _reference_child(net, box, parent, split, h, coeffs, const):
    # one child alone, from its parent's bounds and its own codes: the IBP
    # loop restarted at split layer h from the parent's bounds there, the
    # intersection with the parent's bounds from h on (intersect_bounds),
    # then crown_lower_bound; the batched kernel must give each row these
    # floats.  A contradictory split leaves the bounds crossed (no repair),
    # and a crossed child is empty, its bound +inf
    lowers, uppers = [], []
    zl, zu = parent.lower[h], parent.upper[h]
    last = len(net.layers) - 1
    for i in range(h, last + 1):
        if i > h:
            layer = net.layers[i]
            wp, wn = np.maximum(layer.weight, 0.0), np.minimum(layer.weight, 0.0)
            zl = block_product(lo, wp.T) + block_product(hi, wn.T) + layer.bias
            zu = block_product(hi, wp.T) + block_product(lo, wn.T) + layer.bias
        if i < last:
            code = split.codes[i]
            if code.any():
                zu = np.where(code == FORCED_INACTIVE, np.minimum(zu, 0.0), zu)
                zl = np.where(code == FORCED_ACTIVE, np.maximum(zl, 0.0), zl)
            g = net.grafted[i]
            lo, hi = np.maximum(zl, 0.0), np.maximum(zu, 0.0)
            if g.any():
                g_lo, g_hi = _graft_interval(net.slopes[i], net.intercepts[i], zl, zu)
                lo, hi = np.where(g, g_lo, lo), np.where(g, g_hi, hi)
        lowers.append(zl)
        uppers.append(zu)
    lowers = parent.lower[:h] + tuple(
        np.maximum(x, y) for x, y in zip(lowers, parent.lower[h:])
    )
    uppers = parent.upper[:h] + tuple(
        np.minimum(x, y) for x, y in zip(uppers, parent.upper[h:])
    )
    inter = LayerBounds(lowers, uppers, net.grafted)
    if any(np.any(l > u) for l, u in zip(lowers, uppers)):
        return inter, float("inf")
    lines = _reference_relaxation_lines(net, inter, split)
    A, c0 = coeffs[None, :], np.array([const])
    for i in range(last, -1, -1):
        layer = net.layers[i]
        c0 = c0 + block_product(A, layer.bias)
        A = block_product(A, layer.weight)
        if i > 0:
            ls, li, us, ui = lines[i - 1]
            pos = A > 0.0
            c0 = c0 + np.where(pos, A * li, A * ui).sum(axis=1)
            A = np.where(pos, A * ls, A * us)
    crown = np.where(A > 0.0, A * box.lower, A * box.upper).sum(axis=1) + c0
    lo, hi = inter.lower[-1], inter.upper[-1]
    interval = float(np.where(coeffs > 0.0, coeffs * lo, coeffs * hi).sum() + const)
    return inter, float(max(crown[0], interval))


def _net_with_dead_neurons(seed, widths, graft_fraction):
    # a random net, some neurons grafted, and in every hidden layer one
    # ReLU with zero weights and bias, whose interval is l = u = 0
    net = random_net(seed, widths=widths, weight_scale=1.0, graft_fraction=graft_fraction)
    dead = []
    for h, g in enumerate(net.grafted):
        k = int(np.flatnonzero(~g)[0])
        net.layers[h].weight[k] = 0.0
        net.layers[h].bias[k] = 0.0
        dead.append(net.layer_offsets()[h] + k)
    return net, dead


def _child_batch(net, box, rng, n_parents, n_rows, extra=()):
    """Grow feasible parent domains by the reference path and pick a batch
    of children of them.  Returns the rows, ``(parent bounds, child split,
    split layer, split neuron)``, and the arguments of the
    ``_bound_children`` call that bounds them."""
    offs = net.layer_offsets()
    c, const = rng.normal(0, 1, net.output_dim), float(rng.normal())
    parents = [(SplitAssignment.free(net), compute_bounds(net, box, None, "crown"))]

    def free_neurons(split):
        return [
            o + k for h, o in enumerate(offs)
            for k in np.flatnonzero((split.codes[h] == FREE) & ~net.grafted[h])
        ]

    for _ in range(20 * n_parents):
        if len(parents) == n_parents:
            break
        split, pinter = parents[int(rng.integers(len(parents)))]
        j = int(rng.choice(free_neurons(split)))
        child = split.force(net, j, int(rng.choice([FORCED_ACTIVE, FORCED_INACTIVE])))
        h = net.neuron_location(j)[0]
        cinter, _ = _reference_child(net, box, pinter, child, h, c, const)
        if cinter.feasible:
            parents.append((child, cinter))
    rows = []
    for r in range(n_rows):
        split, pinter = parents[r % len(parents)]
        free = free_neurons(split)
        wanted = [j for j in extra if j in free]
        j = wanted[r % len(wanted)] if wanted and r % 3 == 0 else int(rng.choice(free))
        h = net.neuron_location(j)[0]
        for direction in (FORCED_ACTIVE, FORCED_INACTIVE):
            rows.append((pinter, split.force(net, j, direction), h, j))
    signed = (None,) + _sign_split(net.layers[1:])
    stacked = SplitAssignment([
        np.stack(codes)[:, None, :] for codes in zip(*(row[1].codes for row in rows))
    ])
    # the parents' bounds stacked one per row, from which the rows' IBP
    # restarts
    inter = LayerBounds(
        tuple(np.stack(x)[:, None, :] for x in zip(*(row[0].lower for row in rows))),
        tuple(np.stack(x)[:, None, :] for x in zip(*(row[0].upper for row in rows))),
        net.grafted,
    )
    return rows, (net, signed, box, inter, stacked, [row[2] for row in rows], c, const)


def _check_child_batch(net, box, rng, n_parents, n_rows, extra=()):
    """Bound a batch of children (``_child_batch``) in one call and compare
    every row with the reference.  Returns the kinds of rows seen, and
    "mixed starts" when the rows split at more than one layer."""
    offs = net.layer_offsets()
    rows, args = _child_batch(net, box, rng, n_parents, n_rows, extra)
    c, const = args[-2:]
    got, lower, branch = _bound_children(*args)
    assert lower.shape == (len(rows),)
    assert branch.shape == (len(rows),)
    kinds = {"mixed starts"} if len({row[2] for row in rows}) > 1 else set()
    for r, (pinter, split, h, j) in enumerate(rows):
        want, want_lower = _reference_child(net, box, pinter, split, h, c, const)
        assert got.feasible[r, 0] == want.feasible
        assert lower[r].hex() == want_lower.hex()
        # the branch column is _branch_on of the row's one-domain lines,
        # -1 where that domain has no unstable neuron
        want_branch = int(_branch_on(_domain_lines(net, want, split)))
        if want_branch < 0:
            kinds.add("leaf")
        assert branch[r] == want_branch
        for side in ("lower", "upper"):
            for i, (x, y) in enumerate(zip(getattr(got, side), getattr(want, side))):
                if i >= h:
                    assert x[r, 0].tobytes() == y.tobytes()
                else:  # below its split layer, the parent's values
                    assert x[r, 0].tobytes() == getattr(pinter, side)[i].tobytes()
        kinds.add("feasible" if want.feasible else "infeasible")
        l, u = pinter.lower[h][j - offs[h]], pinter.upper[h][j - offs[h]]
        kinds.add("l=u=0" if l == u == 0.0 else "l<u")
    return kinds


def _deep_case(seed):
    # children of parents at several depths, split at different layers:
    # (net, box, rng, parents, rows, extra neurons) for _child_batch
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(2, 5))
    widths = [int(rng.integers(2, 5))] + [int(rng.integers(5, 9)) for _ in range(depth)] + [3]
    net, dead = _net_with_dead_neurons(7000 + seed, widths, 0.2 if seed % 2 else 0.0)
    box = input_region(rng.uniform(0, 1, widths[0]), float(rng.uniform(0.1, 0.5)), (0, 1))
    return net, box, rng, 6, 8, dead


def _infeasible_case(seed):
    # a tight box, where forcing a stably inactive neuron active empties
    # the region
    rng = np.random.default_rng(7100 + seed)
    net, _ = _net_with_dead_neurons(7100 + seed, [3, 6, 6, 6, 3], 0.2)
    box = input_region(rng.uniform(0, 1, 3), 0.05, (0, 1))
    return net, box, rng, 3, 8, ()


def _protocol_case():
    rng = np.random.default_rng(7200)
    net, dead = _net_with_dead_neurons(7200, [784, 128, 128, 128, 10], 0.3)
    box = input_region(rng.uniform(0, 1, 784), 0.02, (0, 1))
    return net, box, rng, 4, 8, dead


class TestBoundChildren:
    @pytest.mark.parametrize("seed", range(12))
    def test_rows_equal_one_row_path(self, seed):
        # every row, feasible or not, equals the one-row reference byte
        # for byte from its split layer on
        kinds = _check_child_batch(*_deep_case(seed))
        assert kinds >= {"feasible", "l=u=0", "l<u", "mixed starts"}

    def test_infeasible_rows(self):
        seen = set()
        for seed in range(10):
            seen |= _check_child_batch(*_infeasible_case(seed))
        assert {"feasible", "infeasible", "mixed starts"} <= seen

    def test_protocol_shapes(self):
        kinds = _check_child_batch(*_protocol_case())
        assert kinds >= {"feasible", "l=u=0", "mixed starts"}

    def test_blocks_move_only_rounding(self, monkeypatch):
        # the batches above bounded again with the per-row products the
        # bound code ran before it multiplied fixed row blocks: every bound
        # within a relative 1e-12 of those (8e-14 measured), and every
        # row's feasibility and branch neuron equal
        import graftcert.bounds as bounds

        blocked = bounds._rows_matmul
        cases = [_deep_case(s) for s in range(12)] + [_infeasible_case(s) for s in range(10)]
        for case in cases + [_protocol_case()]:
            _, args = _child_batch(*case)
            new = _bound_children(*args)
            monkeypatch.setattr(bounds, "_rows_matmul", per_row_products)
            old = _bound_children(*args)
            monkeypatch.setattr(bounds, "_rows_matmul", blocked)
            assert np.array_equal(new[0].feasible, old[0].feasible)
            assert np.array_equal(new[2], old[2])
            np.testing.assert_allclose(new[1], old[1], rtol=1e-12, atol=0)
            for x, y in zip(new[0].lower + new[0].upper, old[0].lower + old[0].upper):
                np.testing.assert_allclose(x, y, rtol=1e-12, atol=0)

    # tracemalloc peak of the call below, its outputs included: 1,594,901
    # bytes measured with numpy 2.4 (64 rows, every child split in layer 0,
    # so every layer is re-bounded), plus 25%; 1,999,861 while the call
    # also returned the children's raw IBP; 1,817,888 since every hidden
    # layer's lines are built before the CROWN pass and kept for the
    # branch choice, where the pass used to hold one layer's at a time
    WIDE_BATCH_PEAK_BYTES = 1_994_000

    def test_wide_batch_memory(self):
        # one BaB step's bounding call at its widest, so that per-row
        # temporaries that pile up show here, not only in a benchmark's
        # RSS; one (64, 1, 384) float array of all hidden layers is 192 KiB
        import tracemalloc

        rng = np.random.default_rng(7300)
        net = random_net(7300, widths=[784, 128, 128, 128, 10], weight_scale=1.0,
                         graft_fraction=0.25)
        box = input_region(rng.uniform(0, 1, 784), 0.02, (0, 1))
        root = ibp(net, box)
        status = classify_neurons(root, SplitAssignment.free(net))
        first_layer = np.flatnonzero(status[: net.hidden_sizes[0]] == NeuronStatus.UNSTABLE)
        neurons = np.repeat(rng.choice(first_layer, 32), 2)
        codes = np.zeros((64, 1, net.num_hidden), np.int8)
        codes[np.arange(64), 0, neurons] = np.tile([FORCED_ACTIVE, FORCED_INACTIVE], 32)
        split = SplitAssignment(np.split(codes, net.layer_offsets()[1:], axis=-1)[:3])
        inter = LayerBounds(
            tuple(np.repeat(x[None, None], 64, axis=0) for x in root.lower),
            tuple(np.repeat(x[None, None], 64, axis=0) for x in root.upper),
            net.grafted,
        )
        signed = (None,) + _sign_split(net.layers[1:])
        c = np.eye(10)[0] - np.eye(10)[1]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = _bound_children(net, signed, box, inter, split, np.zeros(64, int), c, 0.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out[1].shape == (64,) and np.all(out[0].feasible)
        assert peak < self.WIDE_BATCH_PEAK_BYTES


# vector lengths of the test nets, of the CLI's default 2-D net and of
# the MNIST-shaped protocol net [784, 128, 128, 128, 10], and the
# protocol's (rows, columns) of W, drawn in half the cases
_PRODUCT_WIDTHS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 128, 784)
_PROTOCOL_PRODUCTS = ((784, 128), (128, 784), (128, 128), (128, 10), (10, 128))


def _row_mismatches(seed, cases):
    """Random products through ``_rows_matmul``, each with a row at a random
    position among other rows of another scale, R = 1..13 rows in all, so
    the last block is padded or not.  Returns a description of every case
    where that row's floats differ from its lone call's (which is one row
    padded with zero rows), or the whole result from ``block_product``'s."""
    rng = np.random.default_rng(seed)
    bad = []
    for case in range(cases):
        if rng.random() < 0.5:
            k, n = _PROTOCOL_PRODUCTS[rng.integers(len(_PROTOCOL_PRODUCTS))]
        else:
            k, n = (int(x) for x in rng.choice(_PRODUCT_WIDTHS, 2))
        if rng.random() < 0.3:
            W = rng.normal(0, 1, k)  # a bias
        elif rng.random() < 0.5:
            W = rng.normal(0, 1, (n, k)).T  # a transposed weight, as IBP's
        else:
            W = rng.normal(0, 1, (k, n))
        rows = int(rng.integers(1, 14))
        X = rng.normal(0, 10.0 ** rng.uniform(-3, 3), (rows, k))
        X[rng.random(X.shape) < 0.2] = 0.0
        at = int(rng.integers(rows))
        lone = _rows_matmul(X[at][None], W)[0]
        got = _rows_matmul(X, W)
        stacked = _rows_matmul(X[:, None, :], W)[at, 0]
        if not (got[at].tobytes() == stacked.tobytes() == lone.tobytes()):
            bad.append(f"case {case}: row {at} of {rows}, ({k}) @ {W.shape}")
        if got.tobytes() != block_product(X, W).tobytes():
            bad.append(f"case {case}: ({rows}, {k}) @ {W.shape} is not block_product's")
    return bad


class TestRowsMatmul:
    """Determinism rests on this property of the host BLAS: in a product
    of fixed-size row blocks, a row's floats depend on that row alone."""

    def test_rows_do_not_depend_on_their_block(self):
        assert _row_mismatches(0, 400) == []

    def test_shapes(self):
        X = np.arange(30.0).reshape(5, 1, 6)
        W = np.arange(12.0).reshape(6, 2)
        assert _rows_matmul(X, W).shape == (5, 1, 2)
        assert _rows_matmul(X, W[:, 0]).shape == (5, 1)
        assert np.array_equal(_rows_matmul(X, W), X @ W)
        assert _rows_matmul(X[0, 0], W).shape == (2,)
        assert _rows_matmul(np.eye(6)[None].repeat(3, 0), W, block=6).shape == (3, 6, 2)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_rows_do_not_depend_on_blas_threads(self, threads):
        # a fresh process, since OpenBLAS reads its thread count when it loads
        here = pathlib.Path(__file__).resolve().parent
        paths = [str(here), str(here.parent / "src")]
        code = (
            f"import json, sys; sys.path[:0] = {paths!r}; "
            "from test_bounds import _row_mismatches; "
            "print(json.dumps(_row_mismatches(1, 400)))"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=False
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []


def _reference_backward(net, lines, box, C, c0, start, sense, block=_ROW_BLOCK):
    # the back-substitution kernel as it was when it ran a lower (sense -1)
    # and an upper (sense +1) copy of every step, on four-array lines
    # (lower slope, lower intercept, upper slope, upper intercept); the
    # one lower-bound kernel, negated on -C for upper bounds, must give
    # its floats
    A = np.asarray(C, dtype=np.float64)
    const = np.asarray(c0, dtype=np.float64).copy()
    for i in range(start, -1, -1):
        layer = net.layers[i]
        const = const + block_product(A, layer.bias, block)
        A = block_product(A, layer.weight, block)
        if i > 0:
            ls, li, us, ui = lines[i - 1]
            pos = A > 0.0
            if sense < 0:
                # lower bound: positive coefficients take the lower line
                const = const + np.where(pos, A * li, A * ui).sum(axis=-1)
                A = np.where(pos, A * ls, A * us)
            else:
                const = const + np.where(pos, A * ui, A * li).sum(axis=-1)
                A = np.where(pos, A * us, A * ls)
    pos = A > 0.0
    if sense < 0:
        vals = np.where(pos, A * box.lower, A * box.upper).sum(axis=-1)
    else:
        vals = np.where(pos, A * box.upper, A * box.lower).sum(axis=-1)
    return vals + const, A


def _ibp_where_crossed(lo, hi, ibp_lo, ibp_hi):
    # compute_bounds' rule before the split clamp: a refined neuron whose
    # bounds cross (only rounding does that) keeps its IBP interval; every
    # other neuron keeps its bytes
    crossed = lo > hi
    return np.where(crossed, ibp_lo, lo), np.where(crossed, ibp_hi, hi)


def _reference_compute_bounds(net, box, split):
    # compute_bounds(..., "crown") as it was when every refinement step
    # rebuilt every hidden layer's relaxation lines and ran the two-sense
    # kernel; building only the newly refined layer's lines, and taking
    # upper bounds as negated lower bounds, must not move a bit.  Bounds
    # that a split crosses (an empty region) stay crossed
    base = ibp(net, box, split)
    if not base.feasible:
        return base
    lowers = [b.copy() for b in base.lower]
    uppers = [b.copy() for b in base.upper]
    refined = LayerBounds(tuple(lowers), tuple(uppers), net.grafted)
    for i in range(1, len(net.layers)):
        lines = _reference_relaxation_lines(net, refined, split)[:i]
        d = net.layers[i].out_dim
        C, c0 = np.eye(d), np.zeros(d)
        lo = _reference_backward(net, lines, box, C, c0, i, sense=-1, block=d)[0]
        hi = _reference_backward(net, lines, box, C, c0, i, sense=+1, block=d)[0]
        lo, hi = _ibp_where_crossed(
            np.maximum(lo, lowers[i]), np.minimum(hi, uppers[i]), lowers[i], uppers[i]
        )
        if i < len(net.layers) - 1:
            lo, hi = _clamp_split(split.codes[i], lo, hi)
        lowers[i] = lo
        uppers[i] = hi
        refined = LayerBounds(tuple(lowers), tuple(uppers), net.grafted)
    return refined


class TestComputeBoundsLines:
    @pytest.mark.parametrize("seed", range(16))
    def test_matches_rebuild_every_step_reference(self, seed):
        net = _random_grafted_net(7300 + seed)
        rng = np.random.default_rng(seed)
        box = input_region(rng.uniform(0, 1, net.input_dim), float(rng.uniform(0.05, 0.6)))
        splits = [SplitAssignment.free(net)]
        if net.hidden_sizes:
            splits.append(SplitAssignment([
                np.where(g, FREE, rng.choice([FREE, FREE, FORCED_ACTIVE, FORCED_INACTIVE], d))
                for g, d in zip(net.grafted, net.hidden_sizes)
            ]))
        for split in splits:
            got = compute_bounds(net, box, split, "crown")
            assert _same_bytes(got, _reference_compute_bounds(net, box, split))

    def test_protocol_shapes(self):
        net = random_net(
            7400, widths=[784, 128, 128, 128, 10], weight_scale=1.0, graft_fraction=0.3
        )
        rng = np.random.default_rng(7400)
        box = input_region(rng.uniform(0, 1, 784), 0.02, (0, 1))
        split = SplitAssignment.free(net)
        got = compute_bounds(net, box, split, "crown")
        assert _same_bytes(got, _reference_compute_bounds(net, box, split))

    def test_zero_upper_bound_is_positive_zero(self):
        # relu(x) + relu(-x) - 1 on x in [-1, 1]: the secant upper lines
        # cancel x exactly, so the backward upper bound is exactly 0, below
        # the IBP bound 1; it must come out +0.0, as the reference's upper
        # pass gives it
        net = Network([
            manual_layer([[1.0], [-1.0]], [0.0, 0.0]),
            manual_layer([[1.0, 1.0]], [-1.0]),
            manual_layer([[1.0]], [0.0]),
        ])
        box = Box(np.array([-1.0]), np.array([1.0]))
        split = SplitAssignment.free(net)
        got = compute_bounds(net, box, split, "crown")
        assert got.upper[1].tobytes() == np.zeros(1).tobytes()
        assert _same_bytes(got, _reference_compute_bounds(net, box, split))

    def test_stacked_boxes_equal_one_box_reference(self):
        # eps 0 makes the backward bounds cross the IBP ones by rounding;
        # those neurons keep their IBP intervals, so every row, a point
        # box's included, stays feasible
        feasible = set()
        for seed in range(24):
            rng = np.random.default_rng(7500 + seed)
            if seed == 0:
                net = random_net(7500, widths=[784, 128, 128, 10], weight_scale=0.05)
            else:
                net = _random_grafted_net(7500 + seed)
            boxes = [
                input_region(rng.uniform(0, 1, net.input_dim), float(rng.choice([0.0, 0.05, 0.3])),
                             (0, 1) if seed % 2 else None)
                for _ in range(int(rng.integers(1, 7)))
            ]
            for method in ("ibp", "crown"):
                got = compute_bounds(net, Box.stack(boxes), None, method)
                for e, box in enumerate(boxes):
                    split = SplitAssignment.free(net)
                    want = ibp(net, box) if method == "ibp" else _reference_compute_bounds(net, box, split)
                    row = LayerBounds(
                        tuple(x[e, 0] for x in got.lower), tuple(x[e, 0] for x in got.upper),
                        net.grafted,
                    )
                    assert _same_bytes(row, want), (seed, method, e)
                    assert bool(got.feasible[e, 0]) == want.feasible
                    feasible.add(want.feasible)
        assert feasible == {True}


class TestLowerBoundKernel:
    @pytest.mark.parametrize("seed", range(16))
    def test_matches_two_sense_reference(self, seed):
        # the kernel's pass is the reference's lower pass, and 0 minus its
        # pass on -C, -c0 the reference's upper pass, bit for bit: on one
        # region (1-D lines) and on a stack of R regions with per-row lines
        # and codes, for identity functionals with zero constants (as
        # compute_bounds runs them) and for random ones
        rng = np.random.default_rng(7700 + seed)
        if seed % 2:
            net = _random_grafted_net(7700 + seed)
        else:
            widths = [int(rng.integers(2, 5))]
            widths += [int(rng.integers(4, 8)) for _ in range(int(rng.integers(1, 4)))] + [3]
            net, _ = _net_with_dead_neurons(7700 + seed, widths, 0.2 if seed % 4 else 0.0)
        R = 4
        boxes = [
            input_region(rng.uniform(0, 1, net.input_dim), float(rng.uniform(0.05, 0.5)))
            for _ in range(R)
        ]
        codes = [
            np.where(g, FREE, rng.choice([FREE, FREE, FORCED_ACTIVE, FORCED_INACTIVE], (R, 1, d)))
            for g, d in zip(net.grafted, net.hidden_sizes)
        ]
        stacked = compute_bounds(net, Box.stack(boxes), None, "crown")
        cases = [(Box.stack(boxes), stacked, SplitAssignment(codes))]
        for r, box in enumerate(boxes):
            row = LayerBounds(
                tuple(x[r, 0] for x in stacked.lower), tuple(x[r, 0] for x in stacked.upper),
                net.grafted,
            )
            cases.append((box, row, SplitAssignment([c[r, 0] for c in codes])))
        zeros = 0
        for box, inter, split in cases:
            ref = _reference_relaxation_lines(net, inter, split)
            lines = _domain_lines(net, inter, split)
            stack = box.lower.shape[:-2]
            for start in range(len(net.layers)):
                d = net.layers[start].out_dim
                for C, c0 in (
                    (np.broadcast_to(np.eye(d), stack + (d, d)), np.zeros(stack + (d,))),
                    (rng.normal(0, 1, stack + (2, d)), rng.normal(0, 1, stack + (2,))),
                ):
                    lo, A = _backward(net, lines, box, C, c0, start)
                    want_lo, want_A = _reference_backward(net, ref[:start], box, C, c0, start, -1)
                    assert lo.tobytes() == want_lo.tobytes()
                    assert A.tobytes() == want_A.tobytes()
                    hi = 0.0 - _backward(net, lines, box, -C, -c0, start)[0]
                    want_hi = _reference_backward(net, ref[:start], box, C, c0, start, +1)[0]
                    assert hi.tobytes() == want_hi.tobytes()
                    zeros += int(np.sum(want_hi == 0.0))
        if seed % 2 == 0:
            # a dead neuron's own bounds are l = u = 0
            assert zeros > 0


def _reference_relaxation_lines(net, inter, split):
    # the per-layer masked-assignment construction that the one-pass
    # _relaxation_lines replaced; the floats must not change
    lines = []
    for h in range(len(net.hidden_sizes)):
        l = inter.lower[h]
        u = inter.upper[h]
        code = split.codes[h]
        inactive = (u <= 0.0) | (code == FORCED_INACTIVE)
        active = ((l >= 0.0) | (code == FORCED_ACTIVE)) & ~inactive
        unstable = ~inactive & ~active
        ls = np.zeros_like(l)
        li = np.zeros_like(l)
        us = np.zeros_like(l)
        ui = np.zeros_like(l)
        ls[active] = 1.0
        us[active] = 1.0
        if unstable.any():
            d = np.where(unstable, u - l, 1.0)
            s = u / d
            ls[unstable] = s[unstable]
            us[unstable] = s[unstable]
            ui[unstable] = (-u * l / d)[unstable]
        g = net.grafted[h]
        if g.any():
            ls = np.where(g, net.slopes[h], ls)
            li = np.where(g, net.intercepts[h], li)
            us = np.where(g, net.slopes[h], us)
            ui = np.where(g, net.intercepts[h], ui)
        lines.append((ls, li, us, ui))
    return lines


def _two_chain_backward(net, lines, box, C, c0, start):
    # the lower-bound kernel as it was when each side ran its own chain of
    # products, every corner picked by np.where
    A = np.asarray(C, dtype=np.float64)
    const = np.asarray(c0, dtype=np.float64)
    for i in range(start, -1, -1):
        layer = net.layers[i]
        const = const + A @ layer.bias
        A = A @ layer.weight
        if i > 0:
            slope, li, ui, _ = lines[i - 1]
            const = (np.where(A > 0.0, li, ui) * A).sum(axis=-1) + const
            A = A * slope
    return (np.where(A > 0.0, box.lower, box.upper) * A).sum(axis=-1) + const


def _two_chain_compute_bounds(net, box, split):
    # compute_bounds(..., "crown") as it was when every refined layer ran
    # two back-substitutions, one on I and one on -I, for one box or a
    # stack of them; one chain for both sides must not move a bit.  Bounds
    # that a split crosses (an empty region) stay crossed
    base = ibp(net, box, split)
    if not np.any(base.feasible):
        return base
    lowers = [b.copy() for b in base.lower]
    uppers = [b.copy() for b in base.upper]
    stack = box.lower.shape[:-2]
    refined = LayerBounds(tuple(lowers), tuple(uppers), net.grafted)
    lines = []
    for i in range(1, len(net.layers)):
        lines.append(_relaxation_lines(net, refined, split, i - 1))
        d = net.layers[i].out_dim
        c0 = np.zeros(stack + (d,))
        lo = _two_chain_backward(net, lines, box, np.broadcast_to(np.eye(d), stack + (d, d)), c0, i)
        hi = 0.0 - _two_chain_backward(
            net, lines, box, np.broadcast_to(-np.eye(d), stack + (d, d)), c0, i
        )
        lo, hi = _ibp_where_crossed(
            np.maximum(lo.reshape(lowers[i].shape), lowers[i]),
            np.minimum(hi.reshape(uppers[i].shape), uppers[i]),
            lowers[i], uppers[i],
        )
        if i < len(net.layers) - 1:
            lo, hi = _clamp_split(split.codes[i], lo, hi)
        lowers[i] = lo
        uppers[i] = hi
        refined = LayerBounds(tuple(lowers), tuple(uppers), net.grafted)
    return refined


def _hex(bounds: LayerBounds):
    floats = [float(v).hex() for x in bounds.lower + bounds.upper for v in np.ravel(x)]
    return floats, np.asarray(bounds.feasible).tolist()


def _signed_zero_net(seed):
    # a net with exact +0.0 and -0.0 weights and biases, and one dead ReLU
    # per hidden layer (l = u = 0)
    net, _ = _net_with_dead_neurons(seed, [5, 7, 6, 3], 0.3 if seed % 2 else 0.0)
    rng = np.random.default_rng(seed)
    for layer in net.layers:
        for a in (layer.weight, layer.bias):
            zeros = rng.random(a.shape) < 0.25
            a[zeros] = np.where(rng.random(a.shape) < 0.5, 0.0, -0.0)[zeros]
    return net


class TestOneChainBothSides:
    """``compute_bounds`` back-substitutes each layer's identity once and
    reads both bound sides from that chain; every float must be the one
    the two-chain formula gives."""

    def _cases(self, seed):
        rng = np.random.default_rng(7900 + seed)
        net = _signed_zero_net(7900 + seed) if seed % 3 == 0 else _random_grafted_net(7900 + seed)
        boxes = [
            input_region(rng.uniform(0, 1, net.input_dim), float(rng.uniform(0.05, 0.6)))
            for _ in range(3)
        ]
        forced = SplitAssignment([
            np.where(g, FREE, rng.choice([FREE, FREE, FORCED_ACTIVE, FORCED_INACTIVE], d))
            for g, d in zip(net.grafted, net.hidden_sizes)
        ])
        for split in (SplitAssignment.free(net), forced):
            yield net, boxes[0], split
            yield net, Box.stack(boxes), split

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_two_chain_formula(self, seed):
        for net, box, split in self._cases(seed):
            got = compute_bounds(net, box, split, "crown")
            assert _hex(got) == _hex(_two_chain_compute_bounds(net, box, split))

    def test_exact_zero_bounds_and_signed_zero_weights(self):
        # a dead neuron's refined bounds are exact zeros on both sides, and
        # the upper ones must be +0.0 as the two-chain formula gives them
        zeros = 0
        for seed in range(8):
            net = _signed_zero_net(8000 + seed)
            rng = np.random.default_rng(8000 + seed)
            box = input_region(rng.uniform(0, 1, net.input_dim), 0.3)
            got = compute_bounds(net, box, None, "crown")
            assert _hex(got) == _hex(_two_chain_compute_bounds(net, box, SplitAssignment.free(net)))
            zeros += sum(int(np.sum((u == 0.0) & ~np.signbit(u))) for u in got.upper[1:-1])
        assert zeros > 0

    def test_zero_upper_bound_case(self):
        # test_zero_upper_bound_is_positive_zero's net: the secant upper
        # lines cancel x exactly, so the backward upper bound is exactly 0
        net = Network([
            manual_layer([[1.0], [-1.0]], [0.0, 0.0]),
            manual_layer([[1.0, 1.0]], [-1.0]),
            manual_layer([[1.0]], [0.0]),
        ])
        box = Box(np.array([-1.0]), np.array([1.0]))
        split = SplitAssignment.free(net)
        got = compute_bounds(net, box, split, "crown")
        assert got.upper[1][0].hex() == "0x0.0p+0"
        assert _hex(got) == _hex(_two_chain_compute_bounds(net, box, split))

    def test_protocol_shapes(self):
        # (128, 784) input coefficients per box, as on the MNIST-shaped protocol
        net = random_net(8100, widths=[784, 128, 128, 10], weight_scale=1.0, graft_fraction=0.3)
        rng = np.random.default_rng(8100)
        boxes = [input_region(rng.uniform(0, 1, 784), 0.02, (0, 1)) for _ in range(2)]
        split = SplitAssignment.free(net)
        for box in (boxes[0], Box.stack(boxes)):
            got = compute_bounds(net, box, split, "crown")
            assert _hex(got) == _hex(_two_chain_compute_bounds(net, box, split))

    @pytest.mark.parametrize("seed", range(6))
    def test_pair_equals_two_passes(self, seed):
        # _backward's pair is its pass on C, c0 and its pass on -C, -c0; the
        # second up to the sign of an exact zero (a BLAS sum of -0.0 terms
        # can give +0.0 on both chains), so it is compared as 0 minus it,
        # the upper bound compute_bounds takes
        rng = np.random.default_rng(8200 + seed)
        net = random_net(8200, widths=[784, 128, 10], weight_scale=1.0) if seed == 0 else (
            _signed_zero_net(8200 + seed) if seed % 2 else _random_grafted_net(8200 + seed)
        )
        box = input_region(rng.uniform(0, 1, net.input_dim), 0.2)
        inter = compute_bounds(net, box, None, "crown")
        lines = _domain_lines(net, inter, SplitAssignment.free(net))
        for start in range(len(net.layers)):
            d = net.layers[start].out_dim
            for C, c0 in (
                (np.eye(d), np.zeros(d)),
                (rng.normal(0, 1, (3, d)), rng.normal(0, 1, 3)),
            ):
                (lo, neg), A = _backward(net, lines, box, C, c0, start, both=True)
                want_lo, want_A = _backward(net, lines, box, C, c0, start)
                want_neg = _backward(net, lines, box, -C, -c0, start)[0]
                assert [v.hex() for v in lo] == [v.hex() for v in want_lo]
                assert [v.hex() for v in 0.0 - neg] == [v.hex() for v in 0.0 - want_neg]
                assert np.array_equal(neg, want_neg)
                assert A.tobytes() == want_A.tobytes()


class TestCornerPick:
    """``_corner`` is ``np.where`` bit for bit, by a branch-free select,
    and ``_box_sums`` sums its products as the ``np.where`` formula does."""

    SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310, 1.5, -2.5])

    @pytest.fixture(autouse=True)
    def _quiet(self):
        # inf * 0 and inf - inf give NaN, on both paths alike
        with np.errstate(invalid="ignore", over="ignore"):
            yield

    def _values(self, rng, shape):
        x = rng.normal(0, 1, shape)
        special = rng.random(shape) < 0.5
        x[special] = rng.choice(self.SPECIAL, shape)[special]
        return x

    def _check(self, lo, hi, c):
        for pick in (c > 0.0, c < 0.0):
            for a, b in ((lo, hi), (hi, lo)):
                got = _corner(a, b, pick)
                assert got.tobytes() == np.where(pick, a, b).tobytes()
                assert got.flags.c_contiguous
        low, high = _box_sums(lo, hi, c, both=True)
        assert low.tobytes() == (np.where(c > 0.0, lo, hi) * c).sum(axis=-1).tobytes()
        assert high.tobytes() == (np.where(c > 0.0, hi, lo) * c).sum(axis=-1).tobytes()
        assert _box_sums(lo, hi, c)[0].tobytes() == low.tobytes()

    @pytest.mark.parametrize("rows", [1, 8, 64])
    @pytest.mark.parametrize("width", [16, 128, 784])
    def test_equals_where(self, rows, width):
        # BaB's (R, 1, d) rows against one box or against per-row line
        # intercepts, and the root refinement's (d, d) identity rows
        rng = np.random.default_rng(rows * 1000 + width)
        c = self._values(rng, (rows, 1, width))
        self._check(self._values(rng, width), self._values(rng, width), c)
        self._check(self._values(rng, (rows, 1, width)), self._values(rng, (rows, 1, width)), c)
        c = self._values(rng, (1, rows, width))
        self._check(self._values(rng, (1, 1, width)), self._values(rng, (1, 1, width)), c)

    def test_spec_broadcast_against_stacked_bounds(self):
        # _spec_lower's floor: a (K,) spec against (R, 1, K) final bounds
        # picks an (R, 1, K) corner
        rng = np.random.default_rng(8300)
        K, R = 10, 2000
        lo, hi = self._values(rng, (R, 1, K)), self._values(rng, (R, 1, K))
        c = self._values(rng, K)
        self._check(lo, hi, c)
        want = (np.where(c > 0.0, lo, hi) * c).sum(axis=-1) + 0.25
        assert _interval_lower(lo, hi, c, 0.25).tobytes() == want.tobytes()

    def test_strided_operands(self):
        # a non-contiguous corner or coefficient array still gives a C-order pick
        rng = np.random.default_rng(8301)
        lo, hi = self._values(rng, (4, 1, 40))[..., ::2], self._values(rng, (20, 4, 1)).T
        c = self._values(rng, (1, 4, 20)).transpose(1, 0, 2)
        self._check(lo, hi, c)


class TestRelaxationLines:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_per_layer_reference(self, seed):
        rng = np.random.default_rng(2000 + seed)
        widths = [3] + [int(rng.integers(4, 12)) for _ in range(int(rng.integers(1, 5)))] + [2]
        hidden = widths[1:-1]
        grafted = [rng.random(d) < 0.2 for d in hidden]
        net = Network(
            [manual_layer(np.ones((o, i)), np.zeros(o)) for i, o in zip(widths, widths[1:])],
            grafted,
            [rng.normal(0, 1, d) * (rng.random(d) < 0.8) for d in hidden],
            [rng.normal(0, 1, d) for d in hidden],
        )
        lowers, uppers, codes = [], [], []
        for d, g in zip(hidden, grafted):
            # straddling, l = u = 0, l = 0, u = 0 (also as -0.0), stably
            # active and stably inactive
            a, b, z = -rng.uniform(0.01, 2, d), rng.uniform(0.01, 2, d), np.zeros(d)
            kind = rng.integers(0, 8, d)
            l = np.choose(kind, [a, z, z, a, -z, a, -a, a - 1.0])
            u = np.choose(kind, [b, z, b, z, b, -z, b - a, a])
            lowers.append(l)
            uppers.append(u)
            codes.append(np.where(g, FREE, rng.choice([FREE, FORCED_ACTIVE, FORCED_INACTIVE], d)))
        lowers.append(np.full(2, -1.0))
        uppers.append(np.full(2, 1.0))
        inter = LayerBounds(tuple(lowers), tuple(uppers), net.grafted)
        for split in (SplitAssignment.free(net), SplitAssignment(codes)):
            got = _domain_lines(net, inter, split)
            want = _reference_relaxation_lines(net, inter, split)
            status = np.split(_reference_classify(inter, split), net.layer_offsets()[1:])
            assert len(got) == len(want) == len(hidden)
            for g_line, (ls, li, us, ui), st in zip(got, want, status):
                # the reference's lower and upper slopes are the one slope
                assert ls.tobytes() == us.tobytes()
                assert len(g_line) == 4
                for x, y in zip(g_line, (ls, li, ui)):
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
                # the unstable mask is classify's UNSTABLE status
                assert np.array_equal(g_line[3], st == NeuronStatus.UNSTABLE)

    def test_no_hidden_layer(self):
        net = Network([manual_layer([[1.0, -1.0]], [0.5])])
        box = Box(np.zeros(2), np.ones(2))
        inter = ibp(net, box)
        split = SplitAssignment.free(net)
        assert _reference_relaxation_lines(net, inter, split) == []
        # no hidden layer: the domain has no lines, and the bound is exact
        assert _domain_lines(net, inter, split) == []
        assert _backward(net, [], box, np.eye(1), np.zeros(1), 0)[0].tolist() == [-0.5]


class TestClassify:
    def test_definitions(self):
        net = Network([manual_layer([[1.0], [1.0], [1.0]], [0.0, 0.0, 0.0]),
                       manual_layer([[1.0, 1.0, 1.0]], [0.0])])
        inter = ibp(net, Box(np.array([0.3]), np.array([0.9])))
        # all three neurons share pre-activation [0.3, 0.9] -> stable active
        st = classify_neurons(inter, SplitAssignment.free(net))
        assert set(st.tolist()) == {int(NeuronStatus.STABLE_ACTIVE)}

    def test_unstable_and_forced_override(self):
        net = Network([manual_layer([[1.0]], [0.0]), manual_layer([[1.0]], [0.0])])
        box = Box(np.array([-1.0]), np.array([1.0]))
        inter = ibp(net, box)
        st = classify_neurons(inter, SplitAssignment.free(net))
        assert st[0] == NeuronStatus.UNSTABLE
        forced = SplitAssignment.free(net).force(net, 0, FORCED_INACTIVE)
        st2 = classify_neurons(ibp(net, box, forced), forced)
        assert st2[0] == NeuronStatus.STABLE_INACTIVE

    def test_degenerate_zero_interval_is_inactive(self):
        net = Network([manual_layer([[1.0]], [0.0]), manual_layer([[1.0]], [0.0])])
        inter = ibp(net, Box(np.array([0.0]), np.array([0.0])))
        st = classify_neurons(inter, SplitAssignment.free(net))
        assert st[0] == NeuronStatus.STABLE_INACTIVE

    def test_grafted_status(self):
        net = apply_graft(
            Network([manual_layer([[1.0]], [0.0]), manual_layer([[1.0]], [0.0])]),
            GraftPlan((0,), ((1.0, 0.0),), 0.25, 0.0),
        )
        inter = ibp(net, Box(np.array([-1.0]), np.array([1.0])))
        st = classify_neurons(inter, SplitAssignment.free(net))
        assert st[0] == NeuronStatus.GRAFTED


class TestTally:
    def test_single_example_single_count(self):
        net = Network([manual_layer([[1.0]], [0.0]), manual_layer([[1.0]], [0.0])])
        tally = tally_stability(net, np.array([[0.5]]), eps=1.0)
        assert tally.times_unstable[0] == 1
        assert tally.n_examples == 1

    def test_counts_partition_examples(self):
        net = random_net(50, widths=[2, 5, 3, 2])
        X = np.random.default_rng(8).uniform(0, 1, (40, 2))
        tally = tally_stability(net, X, eps=0.15)
        total = tally.times_unstable + tally.times_active + tally.times_inactive
        assert np.all(total == 40)

    def test_zero_radius_everything_stable(self):
        net = random_net(51, widths=[2, 4, 2])
        rng = np.random.default_rng(9)
        # nonzero pre-activations almost surely
        X = rng.uniform(0, 1, (30, 2))
        _, pre, _ = forward_batch(net, X)
        assert all(np.abs(p).min() > 0 for p in pre[:-1])
        tally = tally_stability(net, X, eps=0.0)
        assert tally.times_unstable.sum() == 0

    def test_grafted_neurons_zero_tally(self):
        net = apply_graft(random_net(52, widths=[2, 4, 2]), GraftPlan((1,), ((0.25, 0.0),)))
        X = np.random.default_rng(10).uniform(0, 1, (20, 2))
        tally = tally_stability(net, X, eps=0.3)
        assert tally.times_unstable[1] == 0
        assert tally.times_active[1] == 0
        assert tally.times_inactive[1] == 0

    def test_histogram_semantics_hand_enumerable(self):
        # one hidden neuron z = x - 0.5: unstable exactly when the eps-ball
        # around x straddles 0.5
        net = Network([manual_layer([[1.0]], [-0.5]), manual_layer([[1.0]], [0.0])])
        X = np.array([[0.1], [0.45], [0.5], [0.55], [0.9]])
        tally = tally_stability(net, X, eps=0.1)
        # 0.45, 0.5, 0.55 straddle; 0.1 and 0.9 are stable
        assert tally.times_unstable[0] == 3
        assert tally.times_inactive[0] == 1
        assert tally.times_active[0] == 1
        # histogram encoding: a bar at m=3 with height 1 neuron
        hist = np.bincount(tally.times_unstable, minlength=len(X) + 1)
        assert hist[3] == 1


def _reference_ibp(net, box, split):
    # IBP with column products W @ lo, as ibp computed it before it shared
    # its row-product layer loop with the batched tally; the floats must
    # not change.  A contradictory split leaves the bounds crossed
    lowers, uppers = [], []
    lo, hi = box.lower, box.upper
    last = len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        wp = np.maximum(layer.weight, 0.0)
        wn = np.minimum(layer.weight, 0.0)
        zl = block_product(lo, wp.T) + block_product(hi, wn.T) + layer.bias
        zu = block_product(hi, wp.T) + block_product(lo, wn.T) + layer.bias
        if i < last:
            code = split.codes[i]
            if code.any():
                zu = np.where(code == FORCED_INACTIVE, np.minimum(zu, 0.0), zu)
                zl = np.where(code == FORCED_ACTIVE, np.maximum(zl, 0.0), zl)
            g = net.grafted[i]
            lo, hi = np.maximum(zl, 0.0), np.maximum(zu, 0.0)
            if g.any():
                g_lo, g_hi = _graft_interval(net.slopes[i], net.intercepts[i], zl, zu)
                lo, hi = np.where(g, g_lo, lo), np.where(g, g_hi, hi)
        lowers.append(zl)
        uppers.append(zu)
    return LayerBounds(tuple(lowers), tuple(uppers), net.grafted)


def _reference_tally(net, X, eps, clip, batch_size=512):
    # the batched IBP and per-layer sign counting that tally_stability
    # used before it shared ibp's layer loop and classify_neurons' rule
    N = net.num_hidden
    unstable, active, inactive = (np.zeros(N, dtype=np.int64) for _ in range(3))
    last = len(net.layers) - 1
    for s in range(0, X.shape[0], batch_size):
        lo = X[s : s + batch_size] - eps
        hi = X[s : s + batch_size] + eps
        if clip is not None:
            lo, hi = np.maximum(lo, clip[0]), np.minimum(hi, clip[1])
        for i, layer in enumerate(net.layers):
            wp = np.maximum(layer.weight, 0.0)
            wn = np.minimum(layer.weight, 0.0)
            zl = lo @ wp.T + hi @ wn.T + layer.bias
            zu = hi @ wp.T + lo @ wn.T + layer.bias
            if i == last:
                break
            ina = zu <= 0.0
            act = (zl >= 0.0) & ~ina
            sl = slice(net.layer_offsets()[i], net.layer_offsets()[i] + zl.shape[1])
            inactive[sl] += ina.sum(axis=0)
            active[sl] += act.sum(axis=0)
            unstable[sl] += (~ina & ~act).sum(axis=0)
            g = net.grafted[i]
            lo, hi = np.maximum(zl, 0.0), np.maximum(zu, 0.0)
            if g.any():
                g_lo, g_hi = _graft_interval(net.slopes[i], net.intercepts[i], zl, zu)
                lo, hi = np.where(g, g_lo, lo), np.where(g, g_hi, hi)
    g = net.grafted_flat()
    for c in (unstable, active, inactive):
        c[g] = 0
    return unstable, active, inactive


def _random_grafted_net(seed):
    rng = np.random.default_rng(seed)
    widths = [int(rng.integers(2, 6))]
    widths += [int(rng.integers(3, 9)) for _ in range(int(rng.integers(0, 4)))]
    widths += [int(rng.integers(2, 4))]
    graft = 0.3 if len(widths) > 2 and seed % 3 else 0.0
    return random_net(seed, widths=widths, weight_scale=1.0, graft_fraction=graft)


class TestSharedKernels:
    @pytest.mark.parametrize("seed", range(12))
    def test_ibp_matches_column_product_reference(self, seed):
        net = _random_grafted_net(5000 + seed)
        rng = np.random.default_rng(seed)
        box = input_region(rng.uniform(0, 1, net.input_dim), float(rng.uniform(0.05, 0.5)))
        splits = [SplitAssignment.free(net)]
        if net.hidden_sizes:
            codes = [
                np.where(g, FREE, rng.choice([FREE, FORCED_ACTIVE, FORCED_INACTIVE], d))
                for g, d in zip(net.grafted, net.hidden_sizes)
            ]
            splits.append(SplitAssignment(codes))
        for split in splits:
            assert _same_bytes(ibp(net, box, split), _reference_ibp(net, box, split))

    def test_ibp_matches_reference_on_protocol_shapes(self):
        net = random_net(5100, widths=[784, 128, 128, 128, 10], weight_scale=1.0)
        rng = np.random.default_rng(5100)
        box = input_region(rng.uniform(0, 1, 784), 0.1, (0, 1))
        split = SplitAssignment.free(net)
        assert _same_bytes(ibp(net, box, split), _reference_ibp(net, box, split))

    @pytest.mark.parametrize("seed", range(12))
    def test_tally_matches_reference(self, seed, monkeypatch):
        import graftcert.bounds as bounds

        monkeypatch.setattr(bounds, "_TALLY_BATCH", 16)
        net = _random_grafted_net(5200 + seed)
        rng = np.random.default_rng(seed)
        # more rows than one batch, so the counts add up across batches
        X = rng.uniform(0, 1, (int(rng.integers(20, 60)), net.input_dim))
        eps = float(rng.uniform(0.0, 0.4))
        clip = (0.0, 1.0) if seed % 2 else None
        tally = tally_stability(net, X, eps, clip)
        want = _reference_tally(net, X, eps, clip, batch_size=16)
        got = (tally.times_unstable, tally.times_active, tally.times_inactive)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert tally.n_examples == X.shape[0]

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -0.1])
    def test_tally_rejects_bad_eps(self, eps):
        # a NaN radius would count every neuron unstable on every example
        net = random_net(5250, widths=[3, 4, 2])
        with pytest.raises(DomainError, match="eps"):
            tally_stability(net, np.zeros((2, 3)), eps)

    def test_tally_without_hidden_layer(self):
        net = Network([manual_layer([[1.0, -1.0]], [0.5])])
        tally = tally_stability(net, np.zeros((3, 2)), 0.1)
        for counts in (tally.times_unstable, tally.times_active, tally.times_inactive):
            assert counts.shape == (0,) and counts.dtype == np.int64
        assert tally.n_examples == 3

    @pytest.mark.parametrize("seed", range(12))
    def test_batched_classify_matches_rows(self, seed):
        net = _random_grafted_net(5300 + seed)
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-0.5, 1.0, (7, net.input_dim))
        hi = lo + rng.uniform(0.0, 0.5, lo.shape)
        free = SplitAssignment.free(net)
        ibp_batch = _ibp_boxes(net, lo, hi, free)
        # and hand-made bounds with l = u = 0, l or u exactly +-0, stably
        # active, stably inactive and straddling
        lowers, uppers = [], []
        for d in net.hidden_sizes + (net.output_dim,):
            a, b, z = -rng.uniform(0.01, 2, (7, d)), rng.uniform(0.01, 2, (7, d)), np.zeros((7, d))
            kind = rng.integers(0, 8, (7, d))
            lowers.append(np.choose(kind, [a, z, z, a, -z, a, -a, a - 1.0]))
            uppers.append(np.choose(kind, [b, z, b, z, b, -z, b - a, a]))
        edge_batch = LayerBounds(tuple(lowers), tuple(uppers), net.grafted)
        splits = [free]
        if net.hidden_sizes:
            splits.append(SplitAssignment([
                np.where(g, FREE, rng.choice([FREE, FORCED_ACTIVE, FORCED_INACTIVE], d))
                for g, d in zip(net.grafted, net.hidden_sizes)
            ]))
        for batch in (ibp_batch, edge_batch):
            for split in splits:
                status = classify_neurons(batch, split)
                assert status.shape == (7, net.num_hidden) and status.dtype == np.int8
                for r in range(7):
                    row = LayerBounds(
                        tuple(x[r] for x in batch.lower),
                        tuple(x[r] for x in batch.upper),
                        batch.grafted,
                    )
                    got = classify_neurons(row, split)
                    assert status[r].tobytes() == got.tobytes()
                    assert got.tobytes() == _reference_classify(row, split).tobytes()

    @pytest.mark.parametrize("seed", range(12))
    def test_per_row_codes_match_rows(self, seed):
        # stacked (R, 1, d) bounds with per-row codes, as a BaB child batch
        # has them: each row's status and branch neuron are the one-row
        # call's, byte for byte, on grafted, forced and dead (l = u = 0)
        # neurons
        rng = np.random.default_rng(5400 + seed)
        widths = [int(rng.integers(2, 5))] + [int(rng.integers(4, 8)) for _ in range(3)] + [3]
        net, dead = _net_with_dead_neurons(5400 + seed, widths, 0.3 if seed % 2 else 0.0)
        rows = 9
        lo = rng.uniform(0, 1, (rows, 1, widths[0]))
        box = Box(lo, lo + rng.uniform(0, 0.5, lo.shape))
        splits = [
            SplitAssignment([
                np.where(g, FREE, rng.choice([FREE, FREE, FORCED_ACTIVE, FORCED_INACTIVE], d))
                for g, d in zip(net.grafted, net.hidden_sizes)
            ])
            for _ in range(rows)
        ]
        stacked = SplitAssignment([np.stack(c)[:, None, :] for c in zip(*(s.codes for s in splits))])
        assert stacked.flat().shape == (rows, 1, net.num_hidden)
        # free IBP: forced neurons are not clamped stable, so each row's
        # status of a straddling forced neuron comes from its own codes
        inter = ibp(net, box)
        status = classify_neurons(inter, stacked)
        assert status.shape == (rows, 1, net.num_hidden) and status.dtype == np.int8
        branch = _branch_on(_domain_lines(net, inter, stacked))
        assert branch.shape == (rows, 1)
        seen = set()
        for r, split in enumerate(splits):
            row = LayerBounds(
                tuple(x[r, 0] for x in inter.lower), tuple(x[r, 0] for x in inter.upper), net.grafted
            )
            want = classify_neurons(row, split)
            assert status[r, 0].tobytes() == want.tobytes()
            assert want.tobytes() == _reference_classify(row, split).tobytes()
            assert branch[r, 0] == _branch_on(_domain_lines(net, row, split))
            code = split.flat()
            seen |= {NeuronStatus(k) for k in want}
            l, u = np.concatenate(row.lower[:-1]), np.concatenate(row.upper[:-1])
            seen |= {"forced straddling"} if np.any((code != FREE) & (l < 0.0) & (u > 0.0)) else set()
            seen |= {"dead"} if np.any((l[dead] == 0.0) & (u[dead] == 0.0) & (code[dead] == FREE)) else set()
        want_kinds = {"forced straddling", "dead", NeuronStatus.UNSTABLE, NeuronStatus.STABLE_INACTIVE}
        assert want_kinds | ({NeuronStatus.GRAFTED} if seed % 2 else set()) <= seen


    @pytest.mark.parametrize("seed", range(12))
    def test_equals_mask_scatter_version(self, seed):
        # the nested selections give the statuses the boolean-mask scatters
        # gave, byte for byte: on dead (l = u = 0), grafted and forced
        # neurons, forced-active ones with u <= 0 among them, for 1-D,
        # (n, d) and per-row-code (R, 1, d) bounds
        rng = np.random.default_rng(5500 + seed)
        widths = [int(rng.integers(2, 5))] + [int(rng.integers(4, 8)) for _ in range(3)] + [3]
        net, dead = _net_with_dead_neurons(5500 + seed, widths, 0.3 if seed % 2 else 0.0)
        rows = 7
        lo = rng.uniform(0, 1, (rows, 1, widths[0]))
        hi = lo + rng.uniform(0, 0.5, lo.shape)
        # free IBP, so a forced neuron keeps its interval: forcing
        # active some neurons with u <= 0 gives forced-active u <= 0
        stacked = ibp(net, Box(lo, hi))
        u = np.concatenate(stacked.upper[:-1], axis=-1)
        grafted = np.concatenate(net.grafted)

        def codes(shape, u):
            code = rng.choice([FREE, FREE, FORCED_ACTIVE, FORCED_INACTIVE], shape).astype(np.int8)
            code[(u <= 0.0) & (rng.random(shape) < 0.5)] = FORCED_ACTIVE
            return np.where(grafted, FREE, code).astype(np.int8)

        def layered(flat):
            offs = list(net.layer_offsets()[1:])
            return SplitAssignment(np.split(flat, offs, axis=-1))

        row = LayerBounds(
            tuple(x[0, 0] for x in stacked.lower), tuple(x[0, 0] for x in stacked.upper), net.grafted
        )
        boxes = _ibp_boxes(net, lo[:, 0], hi[:, 0], SplitAssignment.free(net))
        cases = [
            (row, layered(codes(net.num_hidden, u[0, 0]))),
            (boxes, layered(codes(net.num_hidden, u[:, 0].min(axis=0)))),
            (stacked, layered(codes(u.shape, u))),
        ]
        seen = set()
        for inter, split in cases:
            got = classify_neurons(inter, split)
            want = _mask_scatter_classify(inter, split)
            assert got.dtype == want.dtype == np.int8
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            l = np.concatenate(inter.lower[:-1], axis=-1)
            u_ = np.concatenate(inter.upper[:-1], axis=-1)
            code = np.broadcast_to(split.flat(), l.shape)
            seen |= {"dead"} if np.any((l == 0.0) & (u_ == 0.0) & (code == FREE)) else set()
            seen |= {"forced active, u <= 0"} if np.any((u_ <= 0.0) & (code == FORCED_ACTIVE)) else set()
            seen |= {NeuronStatus(k) for k in np.unique(got)}
        want_kinds = {"dead", "forced active, u <= 0", NeuronStatus.UNSTABLE}
        assert want_kinds | ({NeuronStatus.GRAFTED} if seed % 2 else set()) <= seen


def _classify_branch_on(inter, split):
    # _branch_on as it was when it classified a domain's neurons again
    # after the domain's CROWN pass: the joined hidden bounds, classify's
    # statuses, and the score |l*u| / (u - l) on the unstable ones.
    # Returns the branch neurons and the scores
    status = classify_neurons(inter, split)
    l = np.concatenate(inter.lower[:-1], axis=-1)
    u = np.concatenate(inter.upper[:-1], axis=-1)
    unstable = status == NeuronStatus.UNSTABLE
    score = np.where(unstable, np.abs(l * u) / np.where(unstable, u - l, 1.0), -np.inf)
    if not unstable.any():
        return np.full(status.shape[:-1], -1), score
    return np.where(unstable.any(axis=-1), np.argmax(score, axis=-1), -1), score


class TestBranchRule:
    """The branch neuron read off a domain's lines, the largest upper-line
    intercept over its unstable neurons, is the one the classify-and-score
    rule picked, and the intercept is that rule's score bit for bit."""

    # columns of (l, u) pairs: straddling, l = u = 0, l = 0 < u, l < 0 = u,
    # l = -0.0 < u, l < u = -0.0, stably active, stably inactive, the tie
    # (-1, 1) and a straddling pair whose l*u underflows to zero
    KINDS = 10

    def _bounds(self, rng, net, rows):
        lowers, uppers = [], []
        for h, d in enumerate(net.hidden_sizes + (net.output_dim,)):
            shape = (rows, 1, d)
            a, b, z = -rng.uniform(0.01, 2, shape), rng.uniform(0.01, 2, shape), np.zeros(shape)
            one, tiny = np.ones(shape), np.full(shape, 1e-200)
            kind = rng.integers(0, self.KINDS, shape)
            # row 0: every neuron stable but underflowing ones; row 1: every
            # neuron stable; row 2: every neuron on the tie
            kind[0] = rng.choice([1, 3, 5, 6, 7, 9], d)
            kind[1] = rng.choice([1, 3, 5, 6, 7], d)
            kind[2] = 8
            if h == 0:
                kind[0, 0, np.flatnonzero(~net.grafted[0])[0]] = 9
            lowers.append(np.choose(kind, [a, z, z, a, -z, a, -a, a - 1.0, -one, -tiny]))
            uppers.append(np.choose(kind, [b, z, b, z, b, -z, b - a, a, one, tiny]))
        return LayerBounds(tuple(lowers), tuple(uppers), net.grafted)

    def _split(self, rng, net, inter):
        # random forced codes, and forced active on some neurons with u <= 0
        codes = []
        for g, u in zip(net.grafted, inter.upper):
            code = rng.choice([FREE, FREE, FREE, FORCED_ACTIVE, FORCED_INACTIVE], u.shape)
            code[(u <= 0.0) & (rng.random(u.shape) < 0.5)] = FORCED_ACTIVE
            code[0] = FREE  # row 0 keeps its underflowing neurons free
            codes.append(np.where(g, FREE, code).astype(np.int8))
        return SplitAssignment(codes)

    @pytest.mark.parametrize("seed", range(16))
    def test_same_neuron_as_classify_score(self, seed):
        rng = np.random.default_rng(9100 + seed)
        widths = [3] + [int(rng.integers(3, 9)) for _ in range(int(rng.integers(1, 4)))] + [2]
        net = random_net(9100 + seed, widths=widths, graft_fraction=0.3 if seed % 2 else 0.0)
        rows = 12
        inter = self._bounds(rng, net, rows)
        seen = set()
        for split in (SplitAssignment.free(net), self._split(rng, net, inter)):
            lines = _domain_lines(net, inter, split)
            got = _branch_on(lines)
            want, score = _classify_branch_on(inter, split)
            assert got.shape == want.shape == (rows, 1) and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            ui = np.concatenate([line[2] for line in lines], axis=-1)
            unstable = np.concatenate([line[3] for line in lines], axis=-1)
            assert np.array_equal(unstable, score > -np.inf)
            assert ui[unstable].tobytes() == score[unstable].tobytes()
            # each row alone, with 1-D lines, picks the same neuron
            for r in range(rows):
                row = LayerBounds(
                    tuple(x[r, 0] for x in inter.lower), tuple(x[r, 0] for x in inter.upper),
                    net.grafted,
                )
                one = SplitAssignment([np.broadcast_to(c, (rows, 1, c.shape[-1]))[r, 0]
                                       for c in split.codes])
                assert _branch_on(_domain_lines(net, row, one)) == got[r, 0]
            l = np.concatenate(inter.lower[:-1], axis=-1)
            u = np.concatenate(inter.upper[:-1], axis=-1)
            code = np.broadcast_to(split.flat(), l.shape)
            if np.any(unstable[0]):
                # only underflowing neurons are unstable in row 0: their
                # zero intercept still beats every stable neuron
                assert not np.any(ui[0][unstable[0]]) and got[0, 0] >= 0
                seen.add("underflow")
            if np.sum(unstable[2]) > 1:
                assert got[2, 0] == np.flatnonzero(unstable[2, 0])[0]
                seen.add("tie")
            assert got[1, 0] == -1
            seen |= {"forced active, u <= 0"} if np.any((u <= 0.0) & (code == FORCED_ACTIVE)) else set()
            seen |= {"l = u = 0"} if np.any((l == 0.0) & (u == 0.0) & (code == FREE)) else set()
        assert {"underflow", "tie", "forced active, u <= 0", "l = u = 0"} <= seen

    def test_no_hidden_layer(self):
        net = Network([manual_layer([[1.0, -1.0]], [0.5])])
        inter = ibp(net, Box(np.zeros(2), np.ones(2)))
        assert _branch_on(_domain_lines(net, inter, SplitAssignment.free(net))).tolist() == -1


def _mask_scatter_classify(inter, split):
    # classify_neurons as it was when it scattered each status through a
    # boolean mask
    if not inter.grafted:
        return np.zeros(inter.lower[0].shape[:-1] + (0,), dtype=np.int8)
    l = np.concatenate(inter.lower[:-1], axis=-1)
    u = np.concatenate(inter.upper[:-1], axis=-1)
    status = np.full(l.shape, NeuronStatus.UNSTABLE, dtype=np.int8)
    status[l >= 0.0] = NeuronStatus.STABLE_ACTIVE
    status[u <= 0.0] = NeuronStatus.STABLE_INACTIVE
    code = np.broadcast_to(split.flat(), status.shape)
    status[code == FORCED_ACTIVE] = NeuronStatus.STABLE_ACTIVE
    status[code == FORCED_INACTIVE] = NeuronStatus.STABLE_INACTIVE
    status[..., np.concatenate(inter.grafted)] = NeuronStatus.GRAFTED
    return status


def _reference_classify(inter, split):
    # the per-layer construction that the one-pass classify_neurons replaced
    out = []
    for h in range(len(inter.grafted)):
        l, u, code = inter.lower[h], inter.upper[h], split.codes[h]
        status = np.full(l.shape, NeuronStatus.UNSTABLE, dtype=np.int8)
        status[(u <= 0.0)] = NeuronStatus.STABLE_INACTIVE
        status[(l >= 0.0) & (u > 0.0)] = NeuronStatus.STABLE_ACTIVE
        status[code == FORCED_INACTIVE] = NeuronStatus.STABLE_INACTIVE
        status[code == FORCED_ACTIVE] = NeuronStatus.STABLE_ACTIVE
        status[inter.grafted[h]] = NeuronStatus.GRAFTED
        out.append(status)
    return np.concatenate(out) if out else np.zeros(0, dtype=np.int8)


# The flag-and-repair path that LayerBounds.feasible replaced: _clamp_split
# and intersect_bounds each decided emptiness themselves, kept a flag per
# row, and rewrote a crossed row's lower bounds to min(l, u).  Its
# compute_bounds here takes today's rule for a refinement that crosses by
# rounding (the IBP interval), so only a clamp flags a row.  Bounds are
# (lowers, uppers, flag) triples here.  A row it flags is empty; every
# other row must keep its floats.


def _repair_clamp(code, zl, zu):
    if not code.any():
        return zl, zu, True
    zu = np.where(code == FORCED_INACTIVE, np.minimum(zu, 0.0), zu)
    zl = np.where(code == FORCED_ACTIVE, np.maximum(zl, 0.0), zl)
    empty = np.any(zl > zu, axis=-1, keepdims=True)
    if empty.any():
        zl = np.where(empty, np.minimum(zl, zu), zl)
    return zl, zu, ~empty[..., 0]


def _repair_ibp_from(net, signed, split, start, zl, zu, parent=None, starts=None):
    lowers, uppers, flag = [None] * start, [None] * start, True
    last = len(net.layers) - 1
    for i in range(start, last + 1):
        if i > start:
            zl, zu = _affine_interval(signed[i], net.layers[i].bias, lo, hi)
            if parent is not None:
                held = (np.asarray(starts) >= i)[:, None, None]
                zl, zu = np.where(held, parent[0][i], zl), np.where(held, parent[1][i], zu)
        if i < last:
            zl, zu, ok = _repair_clamp(split.codes[i], zl, zu)
            flag = flag & ok
            g = net.grafted[i]
            lo, hi = np.maximum(zl, 0.0), np.maximum(zu, 0.0)
            if g.any():
                g_lo, g_hi = _graft_interval(net.slopes[i], net.intercepts[i], zl, zu)
                lo, hi = np.where(g, g_lo, lo), np.where(g, g_hi, hi)
        lowers.append(zl)
        uppers.append(zu)
    return lowers, uppers, flag


def _repair_ibp(net, box, split):
    signed = _sign_split(net.layers)
    zl, zu = _affine_interval(signed[0], net.layers[0].bias, box.lower, box.upper)
    return _repair_ibp_from(net, signed, split, 0, zl, zu)


def _repair_compute_bounds(net, box, split):
    lowers, uppers, flag = _repair_ibp(net, box, split)
    if not np.any(flag):
        return lowers, uppers, flag
    stack = box.lower.shape[:-2]
    flag = np.ones(box.lower.shape[:-1], dtype=bool) & flag
    lines = []
    for i in range(1, len(net.layers)):
        inter = LayerBounds(tuple(lowers), tuple(uppers), net.grafted)
        lines.append(_relaxation_lines(net, inter, split, i - 1))
        d = net.layers[i].out_dim
        lo, neg = _backward(
            net, lines, box, np.broadcast_to(np.eye(d), stack + (d, d)),
            np.zeros(stack + (d,)), i, both=True, block=d,
        )[0]
        lo, hi = _ibp_where_crossed(
            np.maximum(lo.reshape(lowers[i].shape), lowers[i]),
            np.minimum((0.0 - neg).reshape(uppers[i].shape), uppers[i]),
            lowers[i], uppers[i],
        )
        if i < len(net.layers) - 1:
            lo, hi, ok = _repair_clamp(split.codes[i], lo, hi)
            flag = flag & ok
        lowers[i], uppers[i] = lo, hi
    return lowers, uppers, flag


def _repair_intersect(a, b, start=0):
    lowers = list(b[0][:start]) + [np.maximum(x, y) for x, y in zip(a[0][start:], b[0][start:])]
    uppers = list(b[1][:start]) + [np.minimum(x, y) for x, y in zip(a[1][start:], b[1][start:])]
    flag = np.logical_and(a[2], b[2])
    crossed = np.logical_or.reduce(
        [np.any(l > u, axis=-1, keepdims=True) for l, u in zip(lowers, uppers)]
    )
    repair = flag[..., None] & crossed
    if repair.any():
        flag = flag & ~crossed[..., 0]
        lowers = [np.where(repair, np.minimum(l, u), l) for l, u in zip(lowers, uppers)]
    return lowers, uppers, flag


def _repair_bound_children(net, signed, box, inter, split, starts, coeffs, const):
    first = int(np.min(starts))
    parent = (inter.lower, inter.upper, True)
    raw = _repair_ibp_from(
        net, signed, split, first, inter.lower[first], inter.upper[first], parent, starts
    )
    lowers, uppers, flag = _repair_intersect(raw, parent, first)
    lines = _domain_lines(net, LayerBounds(tuple(lowers), tuple(uppers), net.grafted), split)
    # the repaired rows do not cross, so the flag alone gave their +inf
    vals = _spec_lower(
        net, box, lines, LayerBounds(tuple(lowers), tuple(uppers), net.grafted), coeffs, const
    )
    return (lowers, uppers, flag), np.where(flag, vals, np.inf)[:, 0], _branch_on(lines)[:, 0]


def _crossed_rows(bounds: LayerBounds):
    # per row, whether some neuron of some layer has lower > upper
    return np.logical_or.reduce([(l > u).any(axis=-1) for l, u in zip(bounds.lower, bounds.upper)])


class TestEmptyIsCrossed:
    """A region is empty exactly where its bounds cross: ``feasible`` is
    False on exactly those rows, which are the rows the flag-and-repair
    path flagged, bounds over them are +inf, and every other row keeps
    the floats that path gave it."""

    def _check(self, got: LayerBounds, want):
        # got: the bound code's bounds; want: the repair path's (lowers,
        # uppers, flag).  Returns got's feasibility
        feasible = np.asarray(got.feasible)
        assert np.array_equal(feasible, ~_crossed_rows(got))
        assert np.array_equal(feasible, np.broadcast_to(want[2], feasible.shape))
        rows = feasible.reshape(-1)  # 1-D bounds are one row
        for x, y in zip(got.lower + got.upper, want[0] + want[1]):
            x, y = x.reshape(len(rows), -1), y.reshape(len(rows), -1)
            assert x[rows].tobytes() == y[rows].tobytes()
        return feasible

    def _case(self, seed):
        # a random net, R boxes, and per row random codes, half of them
        # contradicting the row's IBP bounds: a stably active neuron forced
        # inactive or a stably inactive one forced active
        rng = np.random.default_rng(9100 + seed)
        widths = [int(rng.integers(2, 5))]
        widths += [int(rng.integers(4, 9)) for _ in range(int(rng.integers(1, 4)))] + [3]
        net, _ = _net_with_dead_neurons(9100 + seed, widths, 0.2 if seed % 2 else 0.0)
        R = 6
        boxes = [
            input_region(rng.uniform(0, 1, net.input_dim), float(rng.choice([0.02, 0.1, 0.3])),
                         (0, 1))
            for _ in range(R)
        ]
        free = SplitAssignment.free(net)
        flat = []
        for r, box in enumerate(boxes):
            base = ibp(net, box)
            l = np.concatenate(base.lower[:-1])
            u = np.concatenate(base.upper[:-1])
            ok = ~np.concatenate(net.grafted)
            code = np.zeros(ok.shape, np.int8)
            forced = rng.choice(np.flatnonzero(ok), int(rng.integers(0, 3)), replace=False)
            code[forced] = rng.choice([FORCED_ACTIVE, FORCED_INACTIVE], forced.size)
            if r % 2:
                stable = np.flatnonzero(ok & ((l > 0.0) | (u < 0.0)))
                if stable.size:
                    j = int(rng.choice(stable))
                    code[j] = FORCED_INACTIVE if l[j] > 0.0 else FORCED_ACTIVE
            flat.append(code)
        offs = net.layer_offsets()[1:]
        rows = [SplitAssignment(np.split(code, offs)[: len(net.hidden_sizes)]) for code in flat]
        stacked = SplitAssignment([np.stack(c)[:, None, :] for c in zip(*(s.codes for s in rows))])
        return net, boxes, rows, stacked, free

    @pytest.mark.parametrize("seed", range(12))
    def test_ibp_crown_and_intersection(self, seed):
        net, boxes, rows, stacked, free = self._case(seed)
        c = np.random.default_rng(seed).normal(0, 1, net.output_dim)
        stack = Box.stack(boxes)
        for method, repair in (("ibp", _repair_ibp), ("crown", _repair_compute_bounds)):
            got = compute_bounds(net, stack, stacked, method)
            feasible = self._check(got, repair(net, stack, stacked))
            lines = _domain_lines(net, got, stacked)
            lower = _spec_lower(net, stack, lines, got, c, 0.5)[:, 0]
            assert np.all(lower[~feasible[:, 0]] == np.inf)
            for r, (box, split) in enumerate(zip(boxes, rows)):
                one = compute_bounds(net, box, split, method)
                self._check(one, repair(net, box, split))
                assert one.feasible == feasible[r, 0]
                if not one.feasible:
                    assert crown_lower_bound(net, box, split, one, c, 0.5) == np.inf
                # the child's bounds intersected with its parent's (the
                # root's, by CROWN), as BaB intersects them
                parent = compute_bounds(net, box, None, "crown")
                want = _repair_intersect(
                    repair(net, box, split), _repair_compute_bounds(net, box, free)
                )
                self._check(intersect_bounds(one, parent), want)

    def test_kinds_seen(self):
        seen = set()
        for seed in range(12):
            net, boxes, rows, stacked, _ = self._case(seed)
            seen |= set(np.asarray(compute_bounds(net, Box.stack(boxes), stacked).feasible).ravel())
        assert seen == {True, False}

    @pytest.mark.parametrize("case", ["deep", "infeasible"])
    def test_bound_children(self, case):
        seen = set()
        for seed in range(10):
            make = _deep_case if case == "deep" else _infeasible_case
            _, args = _child_batch(*make(seed))
            got, lower, branch = _bound_children(*args)
            want, want_lower, want_branch = _repair_bound_children(*args)
            feasible = self._check(got, want)[:, 0]
            assert np.all(lower[~feasible] == np.inf)
            assert lower[feasible].tobytes() == want_lower[feasible].tobytes()
            assert branch[feasible].tobytes() == want_branch[feasible].tobytes()
            seen |= set(feasible.tolist())
        assert seen == {True, False}

    def test_contradictory_split_stays_crossed(self):
        # z = x + 5 on x in [0, 1] is stably active; forced inactive, its
        # interval is cut to [5, 0], and stays so through the refinement
        # and an intersection with the free bounds
        net = Network([manual_layer([[1.0]], [5.0]), manual_layer([[2.0]], [1.0])])
        box = Box(np.array([0.0]), np.array([1.0]))
        split = SplitAssignment.free(net).force(net, 0, FORCED_INACTIVE)
        free = compute_bounds(net, box, None, "crown")
        for inter in (
            ibp(net, box, split),
            compute_bounds(net, box, split, "crown"),
            intersect_bounds(ibp(net, box, split), free),
            intersect_bounds(free, compute_bounds(net, box, split, "crown")),
        ):
            assert (inter.lower[0][0], inter.upper[0][0]) == (5.0, 0.0)
            assert inter.feasible is False
            lines = _domain_lines(net, inter, split)
            assert _spec_lower(net, box, lines, inter, np.array([1.0]), 0.0)[0] == np.inf
            assert crown_lower_bound(net, box, split, inter, np.array([-1.0])) == np.inf
        assert free.feasible is True


class TestRoundingCannotEmptyABox:
    """Only a split empties a region: where a CROWN-refined bound crosses
    the IBP one by rounding, ``compute_bounds`` keeps the IBP interval, so
    a box with no split always reads feasible."""

    @pytest.mark.parametrize("case", ROUNDING_CROSS_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_crossing_cases(self, case):
        net, x, box = rounding_cross_case(*case)
        inter = compute_bounds(net, box, None, "crown")
        assert inter.feasible is True
        logits = forward_batch(net, x[None, :])[0][0]
        for label in range(net.output_dim):
            for spec in build_specs(net.output_dim, label):
                bound = crown_lower_bound(net, box, None, inter, spec.coeffs, spec.const)
                # finite, and sound at the box's own input
                assert np.isfinite(bound) and bound <= spec.value(logits) + 1e-9

    @pytest.mark.parametrize("eps", [0.0, 1e-12, 0.1])
    def test_every_root_of_the_sweep_is_feasible(self, eps):
        crossed = []
        for s in range(200):
            net = random_net(7000 + s)
            rng = np.random.default_rng(s)
            X = rng.uniform(0, 1, (3, net.input_dim))
            boxes = [input_region(x, eps) for x in X]
            if not compute_bounds(net, boxes[0], None, "crown").feasible:
                crossed.append((s, "1-D"))
            if not compute_bounds(net, Box.stack(boxes), None, "crown").feasible.all():
                crossed.append((s, "stacked"))
        assert crossed == []

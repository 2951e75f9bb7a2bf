import hashlib
import heapq
from dataclasses import dataclass

import numpy as np
import pytest

from graftcert import (
    AttackConfig,
    Box,
    GraftPlan,
    Network,
    NeuronStatus,
    Specification,
    SplitAssignment,
    UndecidableRegion,
    UsageError,
    VerdictRecord,
    VerdictStatus,
    VerifyBudget,
    apply_graft,
    bab_verify,
    build_specs,
    classify_neurons,
    compute_bounds,
    crown_lower_bound,
    forward,
    forward_batch,
    ibp,
    input_region,
    oracle_input_split,
    pgd_attack,
)
from graftcert.bounds import (
    FORCED_ACTIVE,
    FORCED_INACTIVE,
    FREE,
    LayerBounds,
    _bound_children,
    _branch_on,
    _domain_lines,
    _sign_split,
)
from graftcert.network import input_grad_batch
from graftcert.verifier import (
    _LEAF_ATTACK_STEPS,
    _ROOT_ATTACK_RESTARTS,
    _ROOT_ATTACK_STEPS,
    _layer_codes,
    _minimize_spec,
    _resolve_linear_leaf,
)

from conftest import (
    ROUNDING_CROSS_CASES,
    block_product,
    manual_layer,
    per_row_products,
    random_net,
    rounding_cross_case,
)


class TestSpecs:
    def test_two_class_margin(self):
        specs = build_specs(2, 0)
        assert len(specs) == 1
        assert specs[0].coeffs.tolist() == [1.0, -1.0]
        assert specs[0].const == 0.0

    def test_ten_class_margins(self):
        specs = build_specs(10, 3)
        assert len(specs) == 9
        assert all(s.coeffs[3] == 1.0 for s in specs)
        assert all(s.coeffs[s.target] == -1.0 for s in specs)

    def test_value_is_margin(self):
        spec = build_specs(2, 0)[0]
        assert spec.value(np.array([2.0, 0.5])) == pytest.approx(1.5)

    def test_label_out_of_range(self):
        with pytest.raises(UsageError):
            build_specs(10, 10)
        with pytest.raises(UsageError):
            build_specs(1, 0)


class TestBranchSelect:
    def _lines(self, lus):
        """The relaxation lines of a synthetic one-layer net's free domain
        over the box [0, 1], whose IBP bounds are the given per-neuron
        (l, u) pairs."""
        n = len(lus)
        W = np.array([[u - l] + [0.0] * 0 for l, u in lus]).reshape(n, 1)
        b = np.array([l for l, _ in lus])
        net = Network([manual_layer(W, b), manual_layer(np.ones((1, n)), [0.0])])
        box = Box(np.array([0.0]), np.array([1.0]))
        return _domain_lines(net, ibp(net, box), SplitAssignment.free(net))

    def test_single_unstable_forced_choice(self):
        assert _branch_on(self._lines([(-1.0, 1.0), (0.5, 2.0)])) == 0

    def test_score_arithmetic(self):
        # A: |l u| / (u - l) = 0.5; B: 0.05
        assert _branch_on(self._lines([(-1.0, 1.0), (-0.1, 0.1)])) == 0

    def test_tie_breaks_to_lowest_id(self):
        assert _branch_on(self._lines([(-1.0, 1.0), (-1.0, 1.0)])) == 0

    def test_linear_leaf_gives_minus_one(self):
        assert _branch_on(self._lines([(0.5, 1.0)])) == -1


class TestPgdAttack:
    def test_zero_eps_reflects_clean_classification(self):
        net = random_net(200, widths=[2, 6, 2])
        rng = np.random.default_rng(0)
        found_correct = found_wrong = False
        for i in range(40):
            x0 = rng.uniform(0, 1, 2)
            logits, _, _ = forward(net, x0)
            label = i % 2
            correct = int(np.argmax(logits)) == label
            adv = pgd_attack(net, x0, label, AttackConfig(0.0, steps=3), seed=i)
            if correct:
                assert adv is None
                found_correct = True
            else:
                assert adv is not None and np.array_equal(adv, x0)
                found_wrong = True
        assert found_correct and found_wrong

    def test_counterexample_within_ball_and_clip(self):
        rng = np.random.default_rng(5)
        hits = 0
        for seed in range(30):
            net = random_net(300 + seed, widths=[2, 5, 2])
            x0 = rng.uniform(0, 1, 2)
            logits, _, _ = forward(net, x0)
            label = int(np.argmax(logits))
            eps = 0.3
            adv = pgd_attack(
                net, x0, label, AttackConfig(eps, steps=20, restarts=3, clip=(0, 1)), seed=seed
            )
            if adv is None:
                continue
            hits += 1
            assert np.max(np.abs(adv - x0)) <= eps + 1e-12
            assert np.all(adv >= 0) and np.all(adv <= 1)
            logits_adv, _, _ = forward(net, adv)
            assert int(np.argmax(logits_adv)) != label
        assert hits > 0  # the suite must actually exercise successful attacks

    def test_attack_success_blocks_verification(self):
        # soundness cross-check: a successful attack implies bab never verifies
        rng = np.random.default_rng(6)
        checked = 0
        for seed in range(40):
            net = random_net(400 + seed, widths=[2, 4, 2])
            x0 = rng.uniform(0, 1, 2)
            logits, _, _ = forward(net, x0)
            label = int(np.argmax(logits))
            eps = 0.25
            adv = pgd_attack(net, x0, label, AttackConfig(eps, steps=15, restarts=2, clip=(0, 1)), seed=seed)
            if adv is None:
                continue
            box = input_region(x0, eps, (0, 1))
            for spec in build_specs(2, label):
                v = bab_verify(net, spec, box, VerifyBudget(None, 2000), seed=seed)
                assert v.status != VerdictStatus.VERIFIED or spec.value(forward(net, adv)[0]) > 0
            checked += 1
        assert checked > 0


def _reference_pgd_attack(net, x0, label, cfg, seed=0):
    # pgd_attack's own ascent loop on the margins' violation, from before
    # every attack shared one descent loop; the bytes must not change
    x0 = np.asarray(x0, dtype=np.float64)
    box = input_region(x0, cfg.eps, cfg.clip)
    rng = np.random.default_rng(seed)
    starts = [box.clip(x0)]
    if cfg.restarts > 1:
        starts.append(box.sample(rng, cfg.restarts - 1))
    x = np.vstack([np.atleast_2d(s) for s in starts])
    k = x.shape[0]
    classes = net.output_dim
    others = [t for t in range(classes) if t != label]
    for it in range(cfg.steps + 1):
        logits, pre, _ = forward_batch(net, x)
        margins = logits[:, label][:, None] - logits[:, others]
        hit = np.flatnonzero(margins.min(axis=1) < 0.0)
        if hit.size:
            return x[hit[0]].copy()
        if it == cfg.steps:
            break
        tstar = np.asarray(others)[margins.argmin(axis=1)]
        seedg = np.zeros((k, classes))
        seedg[np.arange(k), tstar] = 1.0
        seedg[np.arange(k), label] = -1.0
        g = input_grad_batch(net, pre, seedg)
        x = box.clip(x + cfg.eps / 4.0 * np.sign(g))
    return None


def _reference_minimize_spec(net, spec, box, steps, starts):
    # _minimize_spec's own descent loop, from the same time
    x = box.clip(np.atleast_2d(np.asarray(starts, dtype=np.float64)))
    step = 0.125 * (box.upper - box.lower)
    best_val = np.inf
    best_x = x[0].copy()
    grad_seed = np.tile(spec.coeffs, (x.shape[0], 1))
    for it in range(steps + 1):
        logits, pre, _ = forward_batch(net, x)
        vals = logits @ spec.coeffs + spec.const
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_x = x[i].copy()
        if best_val < 0.0 or it == steps:
            break
        g = input_grad_batch(net, pre, grad_seed)
        x = box.clip(x - step * np.sign(g))
    return best_x, best_val


def _descent_cases(base):
    """Random nets with 3-5 classes and one to three hidden layers, points
    near the clip range's edges (so a clipped box's (u - l) / 8 is not
    eps / 4), eps 0 included, 1-4 starts and 1-12 steps."""
    for seed in range(60):
        rng = np.random.default_rng(base + seed)
        classes = int(rng.integers(3, 6))
        widths = [int(rng.integers(2, 6))]
        widths += [int(rng.integers(3, 9)) for _ in range(int(rng.integers(1, 4)))]
        widths += [classes]
        net = random_net(base + seed, widths=widths, weight_scale=1.0)
        x0 = rng.choice([0.02, 0.5, 0.97], widths[0]) + rng.uniform(-0.02, 0.02, widths[0])
        eps = (0.0, 0.05, 0.15, 0.3)[seed % 4]
        yield seed, rng, net, x0, eps, int(rng.integers(1, 5)), int(rng.integers(1, 13))


class TestDescentLoop:
    def test_pgd_attack_matches_its_old_loop(self):
        outcomes = set()
        for seed, rng, net, x0, eps, restarts, steps in _descent_cases(7000):
            # mostly the clean prediction, so the attack has to move
            label = int(np.argmax(forward(net, x0)[0])) if seed % 3 else int(rng.integers(net.output_dim))
            cfg = AttackConfig(eps, steps=steps, restarts=restarts, clip=(0, 1))
            got = pgd_attack(net, x0, label, cfg, seed=seed)
            want = _reference_pgd_attack(net, x0, label, cfg, seed=seed)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.tobytes() == want.tobytes()
            outcomes.add((got is None, eps == 0.0, restarts > 1))
        # hits and misses, at eps 0 and above, with one start and several
        assert outcomes == {(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)}

    def test_minimize_spec_matches_its_old_loop(self):
        outcomes = set()
        for seed, rng, net, x0, eps, restarts, steps in _descent_cases(7100):
            box = input_region(x0, eps, (0, 1))
            starts = np.vstack([box.center()[None, :], box.sample(rng, restarts - 1)])
            specs = build_specs(net.output_dim, int(rng.integers(net.output_dim)))
            specs.append(Specification(rng.normal(0, 1, net.output_dim), float(rng.normal(0, 0.5))))
            for spec in specs:
                got_x, got_val = _minimize_spec(net, spec, box, steps, starts)
                want_x, want_val = _reference_minimize_spec(net, spec, box, steps, starts)
                assert got_val.hex() == want_val.hex()
                assert got_x.tobytes() == want_x.tobytes()
                outcomes.add((got_val < 0.0, eps == 0.0, restarts > 1))
        assert outcomes == {(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)}


class TestBabVerify:
    def test_fully_grafted_decides_at_root(self):
        net = random_net(500, widths=[2, 4, 2])
        plan = GraftPlan(tuple(range(net.num_hidden)), ((1.0, 0.0),), 0.3, 0.05)
        net = apply_graft(net, plan)
        box = input_region(np.array([0.4, 0.6]), 0.2)
        spec = build_specs(2, 0)[0]
        v = bab_verify(net, spec, box, VerifyBudget(None, 100), seed=0)
        assert v.domains_explored == 1
        assert v.status in (VerdictStatus.VERIFIED, VerdictStatus.FALSIFIED)

    def test_root_verified_when_bound_positive(self):
        # a net whose margin is trivially positive over the box
        net = Network([manual_layer([[1.0], [0.0]], [5.0, 0.0])])
        box = Box(np.array([0.0]), np.array([1.0]))
        spec = build_specs(2, 0)[0]
        v = bab_verify(net, spec, box, VerifyBudget(None, 100), seed=0)
        assert v.status == VerdictStatus.VERIFIED
        assert v.domains_explored == 1
        assert v.bound > 0

    def test_root_attack_runs_only_when_root_bound_not_positive(self, monkeypatch):
        from graftcert import verifier

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return _minimize_spec(*args, **kwargs)

        monkeypatch.setattr(verifier, "_minimize_spec", counted)
        net = Network([manual_layer([[1.0], [0.0]], [5.0, 0.0])])
        box = Box(np.array([0.0]), np.array([1.0]))
        v = bab_verify(net, build_specs(2, 0)[0], box, VerifyBudget(None, 100), seed=0)
        assert v.status == VerdictStatus.VERIFIED and calls == []
        # the reversed margin is negative everywhere: the root attack runs
        v = bab_verify(net, build_specs(2, 1)[0], box, VerifyBudget(None, 100), seed=0)
        assert v.status == VerdictStatus.FALSIFIED and len(calls) == 1
        # random nets: a margin verified at the root was never attacked
        rng = np.random.default_rng(3)
        root_verified = 0
        for seed in range(20):
            net = random_net(900 + seed, widths=[2, 6, 6, 3])
            x0 = rng.uniform(0.2, 0.8, 2)
            label = int(np.argmax(forward(net, x0)[0]))
            for spec in build_specs(3, label):
                del calls[:]
                v = bab_verify(net, spec, input_region(x0, 0.02, (0, 1)), VerifyBudget(None, 50), seed=seed)
                if v.status == VerdictStatus.VERIFIED and v.domains_explored == 1:
                    root_verified += 1
                    assert calls == []
                else:
                    assert len(calls) >= 1
        assert root_verified > 0

    def test_falsified_has_valid_counterexample(self):
        rng = np.random.default_rng(7)
        falsified = 0
        for seed in range(30):
            net = random_net(600 + seed, widths=[2, 5, 2])
            x0 = rng.uniform(0.2, 0.8, 2)
            eps = 0.35
            box = input_region(x0, eps, (0, 1))
            logits, _, _ = forward(net, box.center())
            spec = build_specs(2, int(np.argmax(logits)))[0]
            v = bab_verify(net, spec, box, VerifyBudget(None, 4000), seed=seed)
            if v.status != VerdictStatus.FALSIFIED:
                continue
            falsified += 1
            cex = v.counterexample
            assert cex is not None
            assert box.contains(cex, atol=1e-12)
            assert spec.value(forward(net, cex)[0]) < 0
        assert falsified > 0

    def test_verified_survives_sampling_attack(self):
        rng = np.random.default_rng(8)
        verified = 0
        for seed in range(25):
            net = random_net(700 + seed, widths=[2, 4, 2])
            x0 = rng.uniform(0.2, 0.8, 2)
            box = input_region(x0, 0.15, (0, 1))
            logits, _, _ = forward(net, box.center())
            spec = build_specs(2, int(np.argmax(logits)))[0]
            v = bab_verify(net, spec, box, VerifyBudget(None, 4000), seed=seed)
            if v.status != VerdictStatus.VERIFIED:
                continue
            verified += 1
            xs = box.sample(rng, 10_000)
            vals = forward_batch(net, xs)[0] @ spec.coeffs + spec.const
            assert vals.min() > 0
        assert verified > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_corner_violation_falsified_by_linear_leaf(self, seed):
        # 1 - 100 * relu(x1 + x2 - 1.98) on [0, 1]^2 dips below zero only
        # where x1 + x2 > 1.99 and has zero gradient where x1 + x2 < 1.98,
        # so PGD from the root's starts cannot move and the leaf's closed
        # form must find the corner
        net = Network([manual_layer([[1.0, 1.0]], [-1.98]), manual_layer([[-100.0]], [1.0])])
        spec = Specification(np.array([1.0]))
        box = Box(np.zeros(2), np.ones(2))
        restarts = box.sample(np.random.default_rng(seed), _ROOT_ATTACK_RESTARTS - 1)
        starts = np.vstack([box.center()[None, :], restarts])
        _, val = _minimize_spec(net, spec, box, _ROOT_ATTACK_STEPS, starts)
        assert val > 0
        v = bab_verify(net, spec, box, VerifyBudget(None, 100), seed=seed)
        assert v.status == VerdictStatus.FALSIFIED
        assert v.domains_explored > 1  # decided below the root
        assert box.contains(v.counterexample, atol=0)
        assert spec.value(forward(net, v.counterexample)[0]) < 0

    def test_progress_and_budget(self):
        net = random_net(801, widths=[2, 8, 8, 2])
        box = input_region(np.array([0.5, 0.5]), 0.4, (0, 1))
        spec = build_specs(2, 0)[0]
        budget = VerifyBudget(None, 50)
        v = bab_verify(net, spec, box, budget, seed=0)
        assert v.domains_explored <= budget.max_domains

    def test_deterministic_verdicts(self):
        net = random_net(802, widths=[2, 6, 2])
        box = input_region(np.array([0.5, 0.5]), 0.3, (0, 1))
        spec = build_specs(2, 0)[0]
        a = bab_verify(net, spec, box, VerifyBudget(None, 500), seed=3)
        b = bab_verify(net, spec, box, VerifyBudget(None, 500), seed=3)
        assert a.status == b.status
        assert a.bound == b.bound
        assert a.domains_explored == b.domains_explored

    def test_timeout_reports_worst_remaining_bound(self):
        found = False
        for seed in range(40):
            net = random_net(900 + seed, widths=[3, 10, 10, 2], weight_scale=1.2)
            box = input_region(np.full(3, 0.5), 0.5, (0, 1))
            spec = build_specs(2, 0)[0]
            v = bab_verify(net, spec, box, VerifyBudget(None, 20), seed=seed)
            if v.status == VerdictStatus.TIMEOUT:
                assert v.bound <= 0
                found = True
                break
        assert found

    def test_grafting_reduces_root_search_exactly_on_last_layer(self):
        # grafting unstable neurons of the last hidden layer leaves every
        # other neuron's bounds untouched, so the root unstable count drops
        # by exactly the grafted-unstable overlap
        for seed in range(10):
            net = random_net(1000 + seed, widths=[2, 5, 6, 2])
            box = input_region(np.array([0.5, 0.5]), 0.3, (0, 1))
            inter = ibp(net, box)
            status = classify_neurons(inter, SplitAssignment.free(net))
            off = net.layer_offsets()[-1]
            last = np.arange(off, net.num_hidden)
            unstable_last = [int(i) for i in last if status[i] == NeuronStatus.UNSTABLE]
            if not unstable_last:
                continue
            take = tuple(unstable_last[: max(1, len(unstable_last) // 2)])
            grafted = apply_graft(net, GraftPlan(take, ((len(take) / net.num_hidden, 0.0),), 0.25, 0.0))
            st2 = classify_neurons(ibp(grafted, box), SplitAssignment.free(grafted))
            before = int((status == NeuronStatus.UNSTABLE).sum())
            after = int((st2 == NeuronStatus.UNSTABLE).sum())
            assert after == before - len(take)

    # sha256 of one "status|bound.hex()|domains|counterexample hex" line per
    # case of _pin_cases, recorded with every child bounded by a full IBP
    # pass and re-recorded when every bound product became a product of
    # fixed row blocks (bounds._rows_matmul), which moved the low bits of
    # bounds and nothing else (PIN_WORK), again when a child's IBP
    # restarted from its parent's bounds instead of its parent's raw IBP,
    # which moved case 12 alone (falsified at the same point after 71
    # domains, not 97), and again when a root not given became
    # CROWN-refined instead of plain IBP (see PIN_WORK); bounding children
    # incrementally, or in batches of one domain's children, must not move
    # a bit of it
    PIN_DIGEST = "338626548c8806513bf160ea78840856f62c85196ab44c7ff18e95fcff26fb44"
    # the same at 8 domains per step, recorded when BaB first popped
    # several domains per step; it differs from PIN_DIGEST only in timeout
    # bounds and where falsified searches stop.  The parent-bounds restart
    # moved case 12 (f135 -> f89); re-recorded at the CROWN root
    BATCHED_PIN_DIGEST = "f2bd7f2a8488fbd903981efa08975965dcbe7d24d48ed85017d93947c9e0c12a"
    # the same at the default of 32 domains per step, which differs from
    # both only in timeout bounds and where falsified searches stop.  The
    # parent-bounds restart moved case 12's timeout bound (-0x1.b55e13b554ddep+1
    # -> -0x1.b3764344f207cp+1); re-recorded at the CROWN root
    WIDE_PIN_DIGEST = "b7d712f7699ff91a911bcbb2a58e6163b74dade23888345b74297972c6409d2d"
    # per case of _pin_cases, its status (first letter) and domains
    # explored at 1, 8 and 32 domains per step, recorded before the bound
    # products were blocked (a new bound product may move the digests
    # above only through the bounds), again at the parent-bounds restart,
    # and at the CROWN root.  There, at every batch size, the IBP-rooted
    # cases 4, 5, 20, 28, 29 and 34 went from timeouts to verified, cases
    # 11, 14, 15, 35 and 38 verified in fewer domains, and no verdict went
    # between verified and falsified; seeds 20-27 (cases 40-55) joined
    # then, to keep the search work the tests below count
    PIN_WORK = {
        1: "t149 t149 v1 v1 v1 v1 v1 v1 v1 f1 v1 v1 f71 f1 v1 v11 v1 v1 v1 v1 v1 f1 "
           "v1 v1 v1 v1 v1 f1 v43 v3 v1 v1 t149 t149 v95 v15 v1 v1 v1 v1 "
           "v1 v1 v15 v1 v1 v1 v1 f1 f1 f1 f7 v1 f1 t149 v135 t149 f3",
        8: "t149 t149 v1 v1 v1 v1 v1 v1 v1 f1 v1 v1 f89 f1 v1 v11 v1 v1 v1 v1 v1 f1 "
           "v1 v1 v1 v1 v1 f1 v43 v3 v1 v1 t149 t149 v95 v15 v1 v1 v1 v1 "
           "v1 v1 v15 v1 v1 v1 v1 f1 f1 f1 f7 v1 f1 t149 v135 t149 f3",
        32: "t149 t149 v1 v1 v1 v1 v1 v1 v1 f1 v1 v1 t149 f1 v1 v11 v1 v1 v1 v1 v1 f1 "
            "v1 v1 v1 v1 v1 f1 v43 v3 v1 v1 t149 t149 v95 v15 v1 v1 v1 v1 "
            "v1 v1 v15 v1 v1 v1 v1 f1 f1 f1 f7 v1 f1 t149 v135 t149 f3",
    }

    @staticmethod
    def _pin_cases():
        """Deep random nets (three hidden layers, some grafted, some given
        their root bounds), each margin of a 3-class output, plus the
        corner net, which is falsified below the root."""
        for seed in range(28):
            rng = np.random.default_rng(4000 + seed)
            widths = [2, 5, 5, 5, 3] if seed % 2 else [3, 8, 8, 8, 3]
            graft = 0.2 if seed % 4 in (1, 2) else 0.0
            net = random_net(4000 + seed, widths=widths, weight_scale=1.0, graft_fraction=graft)
            x0 = rng.uniform(0.2, 0.8, widths[0])
            box = input_region(x0, float(rng.uniform(0.1, 0.4)), (0, 1))
            label = int(np.argmax(forward(net, box.center())[0]))
            root_inter = compute_bounds(net, box, None, "crown") if seed % 3 == 0 else None
            for spec in build_specs(3, label):
                yield net, spec, box, VerifyBudget(None, 150), seed, root_inter
        net = Network([manual_layer([[1.0, 1.0]], [-1.98]), manual_layer([[-100.0]], [1.0])])
        spec, box = Specification(np.array([1.0])), Box(np.zeros(2), np.ones(2))
        yield net, spec, box, VerifyBudget(None, 100), 0, None

    @staticmethod
    def _pin_line(v):
        cex = b"" if v.counterexample is None else v.counterexample.tobytes()
        return f"{v.status.value}|{v.bound.hex()}|{v.domains_explored}|{cex.hex()}"

    def _pin_verdicts(self):
        return [
            bab_verify(net, spec, box, budget, seed=seed, root_inter=root_inter)
            for net, spec, box, budget, seed, root_inter in self._pin_cases()
        ]

    @staticmethod
    def _pin_work(verdicts):
        return " ".join(f"{v.status.value[0]}{v.domains_explored}" for v in verdicts)

    def test_characterization_pin(self, monkeypatch):
        import graftcert.verifier as verifier

        monkeypatch.setattr(verifier, "_BAB_BATCH", 1)
        split_layers = set()
        taken = {}
        replayed = [0]
        bound_children = verifier._bound_children

        class RecordingFrontier(verifier._Frontier):
            def take(self, slots):
                rows = super().take(slots)
                taken.update(codes=rows.codes.copy(), branch=rows.branch.copy())
                return rows

        def recording_bound_children(net, signed, box, inter, split, starts, coeffs, const):
            # each child's codes are its parent's plus the parent's branch
            # neuron forced, active in the first row and inactive in the
            # second; the split layers are read from those codes
            offs = net.layer_offsets()
            for r, h in enumerate(starts):
                code, old, branch = split.flat()[r, 0], taken["codes"][r, 0], taken["branch"][r]
                changed = np.flatnonzero(code != old)
                assert changed.tolist() == [branch]
                assert code[branch] == (FORCED_ACTIVE, FORCED_INACTIVE)[r % 2]
                assert offs[h] <= branch < offs[h] + net.hidden_sizes[h]
                if net.output_dim == 3:
                    split_layers.add(int(h))
            out = bound_children(net, signed, box, inter, split, starts, coeffs, const)
            # each child is a function of its parent's row: the same call on
            # that one row (the parent's stored bounds and the child's codes)
            # gives the child's row byte for byte
            for r in range(len(starts)):
                one = lambda a: a[r : r + 1]
                alone = bound_children(
                    net, signed, box,
                    LayerBounds(tuple(map(one, inter.lower)), tuple(map(one, inter.upper)), net.grafted),
                    SplitAssignment(tuple(map(one, split.codes))), starts[r : r + 1], coeffs, const,
                )
                assert _child_bytes(alone, 0) == _child_bytes(out, r)
                replayed[0] += 1
            return out

        monkeypatch.setattr(verifier, "_Frontier", RecordingFrontier)
        monkeypatch.setattr(verifier, "_bound_children", recording_bound_children)
        verdicts = self._pin_verdicts()
        kinds = {(v.status, v.domains_explored > 1) for v in verdicts}
        assert split_layers == {0, 1, 2}
        assert replayed[0] > 1000
        assert {(s, True) for s in VerdictStatus} <= kinds
        assert self._pin_work(verdicts) == self.PIN_WORK[1]
        lines = [self._pin_line(v) for v in verdicts]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.PIN_DIGEST

    def test_characterization_pin_batched(self, monkeypatch):
        import graftcert.verifier as verifier

        monkeypatch.setattr(verifier, "_BAB_BATCH", 8)
        verdicts = self._pin_verdicts()
        assert self._pin_work(verdicts) == self.PIN_WORK[8]
        lines = [self._pin_line(v) for v in verdicts]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.BATCHED_PIN_DIGEST

    def test_characterization_pin_wide(self):
        import graftcert.verifier as verifier

        assert verifier._BAB_BATCH == 32
        verdicts = self._pin_verdicts()
        assert self._pin_work(verdicts) == self.PIN_WORK[32]
        lines = [self._pin_line(v) for v in verdicts]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.WIDE_PIN_DIGEST

    # the pin digests at 1, 8 and 32 domains per step with the products of
    # the bound code before it multiplied fixed row blocks, one
    # matrix-vector product per row (conftest.per_row_products); re-recorded
    # at the parent-bounds restart and at the CROWN root
    PER_ROW_PIN_DIGESTS = {
        1: "841fcb7ae418aa9c19420667e71155215ee794835419b55db805e7edc6d01b94",
        8: "71829073f4190a1811f58a32bb35fb4f8cfceacc6dbed297ab7ee07b2455321a",
        32: "18947687f2501dba6db4b88d80c4d0029128df24335a86f3af8ab9143e76202a",
    }

    @pytest.mark.parametrize("batch", [1, 8, 32])
    def test_blocks_move_only_rounding(self, monkeypatch, batch):
        # the pin cases with the per-row products patched in, which give
        # the old digests back: every verdict and domain count equal, and
        # every bound within a relative 1e-12 (1.6e-14 measured)
        import graftcert.bounds as bounds
        import graftcert.verifier as verifier

        monkeypatch.setattr(verifier, "_BAB_BATCH", batch)
        new = self._pin_verdicts()
        monkeypatch.setattr(bounds, "_rows_matmul", per_row_products)
        old = self._pin_verdicts()
        lines = [self._pin_line(v) for v in old]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.PER_ROW_PIN_DIGESTS[batch]
        assert self._pin_work(new) == self._pin_work(old) == self.PIN_WORK[batch]
        np.testing.assert_allclose(
            [v.bound for v in new], [v.bound for v in old], rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize("batch, budget_moves", [(8, 0), (32, 1)], ids=["8", "32"])
    def test_batch_size_moves_no_verdict(self, monkeypatch, batch, budget_moves):
        # a domain's children depend only on that domain, so popping many
        # domains per step closes the same tree as popping one: verified
        # results keep bound and work, timeouts stop at the same budget,
        # and a falsified search returns a genuine counterexample.  A wide
        # step bounds domains that one-domain steps never reach before the
        # falsifying leaf, so a falsified search may instead use up its
        # budget: this happens on exactly ``budget_moves`` cases
        import graftcert.verifier as verifier

        monkeypatch.setattr(verifier, "_BAB_BATCH", batch)
        batched = self._pin_verdicts()
        monkeypatch.setattr(verifier, "_BAB_BATCH", 1)
        single = self._pin_verdicts()
        statuses, moves = set(), 0
        for (net, spec, box, budget, *_), a, b in zip(self._pin_cases(), batched, single):
            if (a.status, b.status) == (VerdictStatus.TIMEOUT, VerdictStatus.FALSIFIED):
                # no room is left for another pair of children
                assert a.domains_explored > budget.max_domains - 2
                moves += 1
                continue
            assert a.status == b.status
            statuses.add(a.status)
            if a.status == VerdictStatus.VERIFIED:
                assert (a.bound.hex(), a.domains_explored) == (b.bound.hex(), b.domains_explored)
            elif a.status == VerdictStatus.TIMEOUT:
                assert a.domains_explored == b.domains_explored
            else:
                for v in (a, b):
                    assert box.contains(v.counterexample)
                    assert spec.value(forward(net, v.counterexample)[0]) < 0.0
        assert statuses == set(VerdictStatus)
        assert moves == budget_moves

    def test_branch_is_branch_on_of_each_domain(self, monkeypatch):
        # the branch neuron a domain carries, chosen when it was bounded,
        # is what _branch_on picks on its one-domain bounds at the pop; a
        # domain resolved as a linear leaf has none
        import graftcert.verifier as verifier

        leaf = verifier._resolve_linear_leaf
        calls = {"split": 0, "leaf": 0}
        case = {}

        class CheckingFrontier(verifier._Frontier):
            def take(self, slots):
                # each popped parent's slot comes twice, once per child
                net, r = case["net"], self.rows
                for slot in slots[::2]:
                    calls["split"] += 1
                    inter = LayerBounds(
                        tuple(a[slot, 0] for a in r.lower),
                        tuple(a[slot, 0] for a in r.upper),
                        net.grafted,
                    )
                    split = _layer_codes(net, r.codes[slot, 0])
                    assert r.branch[slot] == _branch_on(_domain_lines(net, inter, split)) >= 0
                return super().take(slots)

        def checking_leaf(net, box, split, inter, spec):
            calls["leaf"] += 1
            assert _branch_on(_domain_lines(net, inter, split)).tolist() == [[-1]]
            return leaf(net, box, split, inter, spec)

        monkeypatch.setattr(verifier, "_Frontier", CheckingFrontier)
        monkeypatch.setattr(verifier, "_resolve_linear_leaf", checking_leaf)
        for net, spec, box, budget, seed, root_inter in self._pin_cases():
            case["net"] = net
            bab_verify(net, spec, box, budget, seed=seed, root_inter=root_inter)
        assert calls["split"] > 500 and calls["leaf"] > 0

    def test_lines_built_once_per_bounding_batch(self, monkeypatch):
        # a domain's relaxation lines are built once and read by both its
        # CROWN pass and its branch choice: each batch of children builds
        # every hidden layer's lines once, in its bounding pass, and a
        # search's root branch comes from one build of its own.  Popping a
        # domain builds nothing (a linear leaf's exact pass builds the
        # leaf's), and BaB never classifies neurons
        import graftcert.bounds as bounds
        import graftcert.verifier as verifier

        relaxation_lines = bounds._relaxation_lines
        run = {}

        def building(net, inter, split, h):
            run["builds"].append((run["phase"], run["bound"], h))
            return relaxation_lines(net, inter, split, h)

        def phase(name, fn):
            def wrapped(*args):
                outer, run["phase"] = run["phase"], name
                before = len(run["builds"])
                try:
                    out = fn(*args)
                finally:
                    run["phase"] = outer
                # every hidden layer once per call
                assert sorted(b[2] for b in run["builds"][before:]) == run["hidden"]
                run[name] += 1
                return out
            return wrapped

        def classifying(*args):
            run["classify"] += 1
            return classify(*args)

        # the cases' root bounds are built first: compute_bounds builds lines
        cases = list(self._pin_cases())
        classify = bounds.classify_neurons
        monkeypatch.setattr(bounds, "_relaxation_lines", building)
        monkeypatch.setattr(bounds, "classify_neurons", classifying)
        monkeypatch.setattr(verifier, "compute_bounds", phase("inter", verifier.compute_bounds))
        monkeypatch.setattr(verifier, "crown_lower_bound", phase("root", verifier.crown_lower_bound))
        monkeypatch.setattr(verifier, "_bound_children", phase("bound", verifier._bound_children))
        monkeypatch.setattr(verifier, "_resolve_linear_leaf", phase("leaf", verifier._resolve_linear_leaf))
        seen = {"bound": 0, "leaf": 0}
        for net, spec, box, budget, seed, root_inter in cases:
            run.update(builds=[], phase="search", inter=0, root=0, bound=0, leaf=0, classify=0,
                       hidden=list(range(len(net.hidden_sizes))))
            bab_verify(net, spec, box, budget, seed=seed, root_inter=root_inter)
            # the builds outside a bounding pass, a leaf and the root's
            # bound: the root branch's, before the first bounding pass,
            # when the search pops its root, which branches or is a leaf
            searched = run["bound"] + run["leaf"] > 0
            rest = [(n, h) for p, n, h in run["builds"] if p == "search"]
            assert rest == [(0, h) for h in run["hidden"] if searched]
            assert run["root"] == 1 and run["classify"] == 0
            # a root not given is bounded by compute_bounds, whose
            # refinement builds every hidden layer's lines once
            assert run["inter"] == (root_inter is None)
            seen = {k: n + run[k] for k, n in seen.items()}
        assert seen["bound"] > 100 and seen["leaf"] > 20, seen

    @pytest.mark.parametrize("batch", [1, 8, 32])
    def test_frontier_store_matches_record_loop(self, monkeypatch, batch):
        # the stacked frontier runs the search the one-record-per-domain
        # loop ran, byte for byte, while its capacity doubles and later
        # children reuse popped domains' slots
        import graftcert.verifier as verifier

        monkeypatch.setattr(verifier, "_BAB_BATCH", batch)
        seen = {"doublings": 0, "reused": 0}

        class RecordingFrontier(verifier._Frontier):
            def put(self, rows):
                cap, used = len(self.rows.bound), self.used
                slots = super().put(rows)
                grown = len(self.rows.bound)
                while cap < grown:
                    cap *= 2
                    seen["doublings"] += 1
                seen["reused"] += sum(s < used for s in slots)
                return slots

        leaf = verifier._resolve_linear_leaf

        def counting_leaf(*args):
            seen["leaves"] += 1
            return leaf(*args)

        monkeypatch.setattr(verifier, "_Frontier", RecordingFrontier)
        monkeypatch.setattr(verifier, "_resolve_linear_leaf", counting_leaf)
        seen["leaves"] = 0
        statuses, most = set(), 0
        for seed in range(12):
            rng = np.random.default_rng(8000 + seed)
            widths = [2, 6, 6, 6, 3] if seed % 2 else [3, 10, 10, 3]
            graft = 0.25 if seed % 3 else 0.0
            net = random_net(8000 + seed, widths=widths, weight_scale=1.0, graft_fraction=graft)
            box = input_region(rng.uniform(0.2, 0.8, widths[0]), float(rng.uniform(0.1, 0.4)), (0, 1))
            label = int(np.argmax(forward(net, box.center())[0]))
            root_inter = compute_bounds(net, box, None, "crown") if seed % 4 < 2 else None
            given = None if root_inter is None else _bound_bytes(root_inter)
            for spec in build_specs(3, label):
                seen.update(doublings=0)
                budget = VerifyBudget(None, 600)
                got = bab_verify(net, spec, box, budget, seed=seed, root_inter=root_inter)
                # the store copies the root's bounds, which callers share
                # between specs
                assert given is None or _bound_bytes(root_inter) == given
                want = _record_loop_bab(net, spec, box, budget, seed, root_inter, batch)
                assert self._pin_line(got) == self._pin_line(want)
                statuses.add(got.status)
                most = max(most, seen["doublings"])
        assert statuses == set(VerdictStatus)
        assert most >= 2 and seen["reused"] > 0 and seen["leaves"] > 0

    def test_store_row_bytes(self, monkeypatch):
        # a store row holds a domain's bounds (2 sides x 394 floats on the
        # protocol net), its split codes (384 int8) and its bound and
        # branch (8 bytes each), nothing more: 2*394*8 + 384 + 16 bytes
        import graftcert.verifier as verifier

        stores = []

        class RecordingFrontier(verifier._Frontier):
            def __init__(self, root):
                super().__init__(root)
                stores.append(self)

        monkeypatch.setattr(verifier, "_Frontier", RecordingFrontier)
        rng = np.random.default_rng(7400)
        net = random_net(7400, widths=[784, 128, 128, 128, 10], weight_scale=1.0)
        box = input_region(rng.uniform(0, 1, 784), 0.02, (0, 1))
        # a root bound given as negative and a spec no input violates: the
        # search starts, and its first children close it
        spec = Specification(np.eye(10)[0], 1e9)
        v = bab_verify(net, spec, box, VerifyBudget(None, 3), root_bound=-1.0)
        assert v.status == VerdictStatus.VERIFIED and v.domains_explored == 3
        (store,) = stores
        rows = store.rows
        assert sum(a.nbytes for a in rows.arrays()) // len(rows.bound) == 2 * 394 * 8 + 384 + 16

    @pytest.mark.parametrize("case", ROUNDING_CROSS_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_library_root_is_the_verify_stage_root(self, case):
        # bab_verify bounds a root it is not given as the verify stage does,
        # by compute_bounds(..., "crown"): both calls run the same search.
        # On these roots a refinement that crossed by rounding once made
        # the box read empty, and BaB verified every margin, those negative
        # at the box's own input among them (on 7500, label 1 against 0)
        net, x, box = rounding_cross_case(*case)
        inter = compute_bounds(net, box, None, "crown")
        logits = forward(net, x)[0]
        falsified = 0
        for label in range(net.output_dim):
            for spec in build_specs(net.output_dim, label):
                given = bab_verify(net, spec, box, VerifyBudget(None, 64), root_inter=inter)
                alone = bab_verify(net, spec, box, VerifyBudget(None, 64))
                assert self._pin_line(given) == self._pin_line(alone)
                assert np.isfinite(given.bound)
                if spec.value(logits) < 0.0:
                    assert given.status == VerdictStatus.FALSIFIED
                    assert spec.value(forward(net, given.counterexample)[0]) < 0.0
                    falsified += 1
        assert falsified > 0

    def test_zero_graft_never_increases_unstable_count(self):
        # slope-0 grafts shrink every downstream interval, so instability
        # can only go down
        for seed in range(10):
            rng = np.random.default_rng(1100 + seed)
            net = random_net(1100 + seed)
            box = input_region(rng.uniform(0, 1, net.input_dim), 0.3)
            status = classify_neurons(ibp(net, box), SplitAssignment.free(net))
            unstable = np.flatnonzero(status == NeuronStatus.UNSTABLE)
            if unstable.size == 0:
                continue
            take = tuple(int(i) for i in unstable[: max(1, unstable.size // 2)])
            grafted = apply_graft(net, GraftPlan(take, ((len(take) / net.num_hidden, 0.0),), 0.0, 0.0))
            st2 = classify_neurons(ibp(grafted, box), SplitAssignment.free(grafted))
            before = int((status == NeuronStatus.UNSTABLE).sum())
            after = int((st2 == NeuronStatus.UNSTABLE).sum())
            assert after <= before - len(take)


def _bound_bytes(bounds):
    return [x.tobytes() for x in bounds.lower + bounds.upper]


def _child_bytes(out, r):
    # row r of a _bound_children result: its bounds, feasibility, lower
    # bound and branch neuron
    bounds, lower, branch = out
    feasible = np.broadcast_to(bounds.feasible, (len(lower), 1))[r]
    return [x[r].tobytes() for x in bounds.lower + bounds.upper] + [
        feasible.tobytes(), lower[r].tobytes(), branch[r].tobytes()
    ]


@dataclass
class _Record:
    # one pending domain of the record-per-domain loop below
    split: SplitAssignment
    bound: float
    inter: LayerBounds
    branch: int = -1


def _record_loop_bab(net, spec, box, budget, seed, root_inter, batch):
    # bab_verify as it was when the frontier held one record per
    # pending domain: it stacked the popped parents' arrays into rows for
    # the bounding call and copied each kept child back out of them (no
    # wall clock: budgets here count domains only)
    explored = 1

    def verdict(status, bound, cex=None):
        cex = None if cex is None else np.asarray(cex, dtype=np.float64)
        return VerdictRecord(status, float(bound), cex, 0.0, explored)

    root_split = SplitAssignment.free(net)
    inter = compute_bounds(net, box, root_split, "crown") if root_inter is None else root_inter
    root_bound = crown_lower_bound(net, box, root_split, inter, spec.coeffs, spec.const)
    if root_bound > 0.0:
        return verdict(VerdictStatus.VERIFIED, root_bound)
    restarts = box.sample(np.random.default_rng(seed), _ROOT_ATTACK_RESTARTS - 1)
    starts = np.vstack([box.center()[None, :], restarts])
    x_adv, val = _minimize_spec(net, spec, box, _ROOT_ATTACK_STEPS, starts)
    if val < 0.0:
        return verdict(VerdictStatus.FALSIFIED, val, x_adv)
    signed = (None,) + _sign_split(net.layers[1:])
    root_branch = int(_branch_on(_domain_lines(net, inter, root_split)))
    heap = [(root_bound, 0, _Record(root_split, root_bound, inter, root_branch))]
    counter = 1
    verified_floor = np.inf
    offsets = net.layer_offsets()

    def stack(arrays):
        return np.stack(arrays)[:, None, :]

    def row(batch, r, parent, h):
        return LayerBounds(
            parent.lower[:h] + tuple(x[r, 0].copy() for x in batch.lower[h:]),
            parent.upper[:h] + tuple(x[r, 0].copy() for x in batch.upper[h:]),
            parent.grafted,
        )

    while heap:
        room = min(batch, (budget.max_domains - explored) // 2)
        if room < 1:
            return verdict(VerdictStatus.TIMEOUT, heap[0][0])
        parents = []
        for _ in range(room):
            if not heap:
                break
            dom = heapq.heappop(heap)[2]
            if dom.branch < 0:
                kind, leaf_val, witness = _resolve_linear_leaf(net, box, dom.split, dom.inter, spec)
                if kind == "verified":
                    verified_floor = min(verified_floor, leaf_val)
                    continue
                if kind == "falsified":
                    return verdict(VerdictStatus.FALSIFIED, leaf_val, witness)
                x_adv, val = _minimize_spec(net, spec, box, _LEAF_ATTACK_STEPS, witness[None, :])
                if val < 0.0:
                    return verdict(VerdictStatus.FALSIFIED, val, x_adv)
                continue
            parents.append(dom)
        if not parents:
            continue
        neurons = np.repeat([p.branch for p in parents], 2)
        codes = np.repeat(np.stack([p.split.flat() for p in parents]), 2, axis=0)
        codes[np.arange(len(neurons)), neurons] = np.tile(
            [FORCED_ACTIVE, FORCED_INACTIVE], len(parents)
        )
        layers = np.searchsorted(offsets, neurons, side="right") - 1
        split = SplitAssignment(np.split(codes[:, None, :], offsets[1:], axis=-1))
        rows = [p for p in parents for _ in range(2)]
        pinter = LayerBounds(
            tuple(map(stack, zip(*(p.inter.lower for p in rows)))),
            tuple(map(stack, zip(*(p.inter.upper for p in rows)))),
            net.grafted,
        )
        child, lower, branch = _bound_children(
            net, signed, box, pinter, split, layers, spec.coeffs, spec.const
        )
        explored += len(rows)
        for r, (p, h) in enumerate(zip(rows, layers)):
            cb = max(float(lower[r]), p.bound)
            if cb > 0.0:
                if np.isfinite(cb):
                    verified_floor = min(verified_floor, cb)
                continue
            kid = _Record(
                SplitAssignment([c[r, 0] for c in split.codes]),
                cb,
                row(child, r, p.inter, h),
                int(branch[r]),
            )
            heapq.heappush(heap, (cb, counter, kid))
            counter += 1
    return verdict(VerdictStatus.VERIFIED, verified_floor)


def _reference_linear_leaf(net, box, split, inter, spec):
    # the dedicated back-substitution loop that _resolve_linear_leaf ran
    # before it shared the CROWN backward pass; the floats must not change
    lines = _domain_lines(net, inter, split)
    A = spec.coeffs[None, :]
    const = np.array([spec.const])
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        const = const + block_product(A, layer.bias)
        A = block_product(A, layer.weight)
        if i > 0:
            slope, li, *_ = lines[i - 1]
            const = const + (A * li).sum(axis=1)
            A = A * slope
    a = A[0]
    witness = np.where(a > 0.0, box.lower, box.upper)
    exact_min = float(np.where(a > 0.0, a * box.lower, a * box.upper).sum() + float(const[0]))
    if exact_min > 0.0:
        return ("verified", exact_min, None)
    logits, _, _ = forward_batch(net, witness[None, :])
    true_val = spec.value(logits[0])
    if true_val < 0.0:
        return ("falsified", true_val, witness)
    return ("discard", exact_min, witness)


class TestLinearLeaf:
    def test_matches_dedicated_loop_reference(self):
        # every neuron forced or grafted, so the domain is a linear leaf
        kinds = set()
        for seed in range(40):
            rng = np.random.default_rng(6000 + seed)
            widths = [int(rng.integers(2, 6))]
            widths += [int(rng.integers(3, 9)) for _ in range(int(rng.integers(0, 4)))]
            widths += [3]
            graft = 0.3 if len(widths) > 2 and seed % 2 else 0.0
            net = random_net(6000 + seed, widths=widths, weight_scale=1.0, graft_fraction=graft)
            split = SplitAssignment([
                np.where(g, FREE, rng.choice([FORCED_ACTIVE, FORCED_INACTIVE], d))
                for g, d in zip(net.grafted, net.hidden_sizes)
            ])
            box = input_region(rng.uniform(0, 1, widths[0]), float(rng.uniform(0.05, 0.5)))
            inter = compute_bounds(net, box, None, "crown") if seed % 3 == 0 else ibp(net, box)
            # the domain as one stacked (1, 1, d) row, as bab_verify passes it
            row = LayerBounds(
                tuple(x[None, None] for x in inter.lower),
                tuple(x[None, None] for x in inter.upper),
                net.grafted,
            )
            row_split = SplitAssignment([c[None, None] for c in split.codes])
            for spec in build_specs(3, int(rng.integers(3))):
                got = _resolve_linear_leaf(net, box, split, inter, spec)
                want = _reference_linear_leaf(net, box, split, inter, spec)
                key = lambda r: (r[0], r[1].hex(), None if r[2] is None else r[2].tobytes())
                assert key(got) == key(want)
                assert key(_resolve_linear_leaf(net, box, row_split, row, spec)) == key(want)
                kinds.add(got[0])
        assert kinds == {"verified", "falsified", "discard"}


class TestDiscardedLeaf:
    # on the box [0, 1] this net is 1 except for a V-shaped dip to -1 at
    # x = -b1[1], 0.04 wide: its hidden neurons switch on at x = -b1
    def _dip(self, b1):
        net = Network([
            manual_layer([[1.0], [1.0], [1.0]], b1),
            manual_layer([[-100.0, 200.0, -100.0]], [1.0]),
        ])
        return net, Specification(np.array([1.0])), Box(np.array([0.0]), np.array([1.0]))

    def test_off_center_dip_has_a_counterexample(self):
        net, spec, box = self._dip([-0.28, -0.30, -0.32])
        assert spec.value(forward(net, np.array([0.30]))[0]) < 0.0
        assert oracle_input_split(net, spec, box, 1e-4) == VerdictStatus.FALSIFIED

    @pytest.mark.xfail(
        strict=True,
        reason="a linear leaf whose witness corner leaves its split region is "
        "discarded after one seeded attack, though the region holds the dip",
    )
    def test_off_center_dip_is_not_verified(self):
        net, spec, box = self._dip([-0.28, -0.30, -0.32])
        for seed in range(10):
            v = bab_verify(net, spec, box, VerifyBudget(None, 1000), seed=seed)
            assert v.status != VerdictStatus.VERIFIED

    def test_centered_dip_is_falsified_at_the_root(self):
        # the root attack starts at the box center, the bottom of the dip;
        # without it this case too comes back VERIFIED
        net, spec, box = self._dip([-0.48, -0.50, -0.52])
        for seed in range(10):
            v = bab_verify(net, spec, box, VerifyBudget(None, 1000), seed=seed)
            assert v.status == VerdictStatus.FALSIFIED and v.domains_explored == 1
            assert box.contains(v.counterexample)
            assert spec.value(forward(net, v.counterexample)[0]) < 0.0


class TestOracle:
    def test_positive_affine_verified_at_root(self):
        net = Network([manual_layer([[1.0]], [1.0])])
        spec = type(build_specs(2, 0)[0])(np.array([1.0]), 0.0, None, None)
        box = Box(np.array([0.0]), np.array([1.0]))
        assert oracle_input_split(net, spec, box, 1e-4) == VerdictStatus.VERIFIED

    def test_sign_change_falsified(self):
        net = Network([manual_layer([[1.0]], [-0.5])])
        spec = type(build_specs(2, 0)[0])(np.array([1.0]), 0.0, None, None)
        box = Box(np.array([0.0]), np.array([1.0]))
        assert oracle_input_split(net, spec, box, 1e-4) == VerdictStatus.FALSIFIED

    def test_dimension_guard(self):
        net = random_net(1200, widths=[4, 3, 2])
        spec = build_specs(2, 0)[0]
        box = Box(np.zeros(4), np.ones(4))
        with pytest.raises(UsageError):
            oracle_input_split(net, spec, box, 1e-4)

    def test_undecidable_at_tolerance(self):
        # min exactly zero at a corner: neither side can resolve
        net = Network([manual_layer([[1.0]], [0.0])])
        spec = type(build_specs(2, 0)[0])(np.array([1.0]), 0.0, None, None)
        box = Box(np.array([0.0]), np.array([1.0]))
        with pytest.raises(UndecidableRegion):
            oracle_input_split(net, spec, box, 1e-3)

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_bab(self, seed):
        rng = np.random.default_rng(1300 + seed)
        net = random_net(1300 + seed, widths=[2, 5, 5, 2], weight_scale=0.9)
        x0 = rng.uniform(0.2, 0.8, 2)
        eps = float(rng.uniform(0.1, 0.4))
        box = input_region(x0, eps, (0, 1))
        logits, _, _ = forward(net, box.center())
        spec = build_specs(2, int(np.argmax(logits)))[0]
        xs = box.sample(rng, 20_000)
        est = float((forward_batch(net, xs)[0] @ spec.coeffs).min())
        if abs(est) <= 1e-4:
            pytest.skip("margin too close to zero")
        try:
            o = oracle_input_split(net, spec, box, 1e-4)
        except UndecidableRegion:
            pytest.skip("oracle undecidable at tolerance")
        v = bab_verify(net, spec, box, VerifyBudget(None, 40_000), seed=7)
        assert (o == VerdictStatus.VERIFIED) == (v.status == VerdictStatus.VERIFIED)

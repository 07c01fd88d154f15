import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcomp.boolcube import (BooleanFunction, and_inner, disj_le1_inner,
                                from_profile, ip_inner, profile_from_values,
                                symmetric_profile)
from blockcomp.errors import ArityMismatch, NotSymmetric
from oracles import (and_function, block_compose, constant_function, domain,
                     or_function, parity_function, per_call_bcw, per_call_symand,
                     projection, tree_depth, tree_evaluate, value_matrix)
from blockcomp.protocols import (CostLedger, DecisionTree, HamOracleConfig,
                                 Leaf, Node, compile_bcw, compile_symand,
                                 optimal_decision_tree, repetition_schedule,
                                 za_header_bits)

# n=4 profile with ell0 = 0, ell1 = 2: zero up to weight 2, one above
STEP4 = from_profile([0, 0, 0, 1, 1])
STEP4_NEG = from_profile([1, 1, 1, 0, 0])
STEP4_PROFILE = symmetric_profile(STEP4)
STEP4_NEG_PROFILE = symmetric_profile(STEP4_NEG)


def block_values(g, n, x, y):
    """z whose bit i - 1 is g on block i of x and y."""
    mask, cells = (1 << g.k) - 1, value_matrix(g).tolist()
    return sum(cells[(x >> (i * g.k)) & mask][(y >> (i * g.k)) & mask] << i
               for i in range(n))


class TestDecisionTrees:
    def test_depths(self):
        assert tree_depth(optimal_decision_tree(constant_function(3, 1))) == 0
        assert tree_depth(optimal_decision_tree(and_function(3))) == 3
        assert tree_depth(optimal_decision_tree(or_function(2))) == 2
        assert tree_depth(optimal_decision_tree(parity_function(3))) == 3
        assert tree_depth(optimal_decision_tree(projection(3, 2))) == 1

    def test_arity_guard(self):
        with pytest.raises(ArityMismatch):
            optimal_decision_tree(parity_function(5))

    @pytest.mark.parametrize("f,depth", [
        (and_function(3), 3), (or_function(3), 3), (parity_function(3), 3),
        (projection(4, 3), 1), (from_profile([0, 1, 0, 1, 0]), 4),
    ], ids=("f0", "f1", "f2", "f3", "f4"))
    def test_tree_evaluates_f_at_optimal_depth(self, f, depth):
        tree = optimal_decision_tree(f)
        assert tree_depth(tree) == depth
        for x in range(1 << f.n):
            assert tree_evaluate(tree, x) == f.table[x]

    def test_manual_tree(self):
        tree = DecisionTree(2, Node(1, Leaf(0), Node(2, Leaf(0), Leaf(1))))
        assert tree_depth(tree) == 2
        assert [tree_evaluate(tree, x) for x in range(4)] == [0, 0, 0, 1]


class TestBcwCompiler:
    def test_exact_exhaustive(self):
        f = parity_function(2)
        g = ip_inner(2)
        tree = optimal_decision_tree(f)
        composed = block_compose(f, g)
        bcw = compile_bcw(tree, 3, 1)
        for x in range(16):
            for y in range(16):
                out, ledger = bcw.run(block_values(g, 2, x, y))
                assert out == composed.value(x, y)
                assert ledger.total == 3 * len(ledger.subprotocol_invocations)
                assert len(ledger.subprotocol_invocations) == tree_depth(tree)

    def test_ledger_bound(self):
        f = or_function(3)
        g = and_inner()
        tree = optimal_decision_tree(f)
        reps, cost = 5, 7
        bcw = compile_bcw(tree, cost, reps)
        for x in (0, 3, 7):
            _, ledger = bcw.run(block_values(g, 3, x, x))
            assert ledger.bits_sent_alice == 0 and ledger.bits_sent_bob == 0
            assert all(r == reps for _, _, r in ledger.subprotocol_invocations)
            assert ledger.total <= tree_depth(tree) * reps * cost

    def test_parameter_validation(self):
        tree = optimal_decision_tree(projection(1, 1))
        with pytest.raises(ValueError, match="repetitions"):
            compile_bcw(tree, 1, 0)
        with pytest.raises(ValueError, match="g_protocol_cost"):
            compile_bcw(tree, -5, 1)
        with pytest.raises(ValueError, match="inject_error"):
            compile_bcw(tree, 1, 1, inject_error=0.5)

    def test_one_ledger_per_query_path(self):
        tree = optimal_decision_tree(or_function(2))
        bcw = compile_bcw(tree, 2, 3, inject_error=0.2)
        ledgers = {}
        for z in range(4):
            for seed in range(30):
                _, ledger = bcw.run(z, seed)
                path = tuple(int(label[2:]) for label, _, _ in
                             ledger.subprotocol_invocations)
                assert ledgers.setdefault(path, ledger) is ledger
        assert set(ledgers) == {(1,), (1, 2)}

    def test_majority_suppresses_injected_error(self):
        f = parity_function(2)
        g = and_inner()
        tree = optimal_decision_tree(f)
        composed = block_compose(f, g)
        reps = 33
        errors = 0
        trials = 1200
        bcw = compile_bcw(tree, 1, reps, inject_error=1.0 / 3.0)
        for t in range(trials):
            x = y = t % 4
            out, _ = bcw.run(x & y, seed=t)  # AND blocks: z = x & y
            errors += out != composed.value(x, y)
        # union bound over depth-many majority votes
        assert errors / trials <= tree_depth(tree) * math.exp(-reps / 18.0) + 0.05

    def test_deterministic_given_seed(self):
        tree = optimal_decision_tree(or_function(2))
        # the and_inner blocks of x = 1 and y = 3 have the values 1 & 3
        runs = [compile_bcw(tree, 2, 5, inject_error=0.25).run(1 & 3, seed=99)
                for _ in range(2)]
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]


class TestCostLedger:
    def test_frozen_with_total(self):
        ledger = CostLedger(1, 2, (("g@1", 3, 5),), ("note",))
        assert ledger.total == 1 + 2 + 3 * 5
        with pytest.raises(AttributeError):
            ledger.total = 0
        with pytest.raises(AttributeError):
            ledger.notes = ()


class TestRepetitionSchedule:
    def test_values(self):
        assert repetition_schedule(0) == 1
        assert repetition_schedule(6) == 41

    def test_odd_and_monotone(self):
        rs = [repetition_schedule(d) for d in range(0, 40)]
        assert all(r % 2 == 1 for r in rs)
        assert rs == sorted(rs)

    @pytest.mark.parametrize("delta", [1, 2, 6, 14, 30, 100])
    def test_bound_met_minimally(self, delta):
        r = repetition_schedule(delta)
        target = 1.0 / (3.0 * (math.floor(math.log2(delta)) + 1))
        assert math.exp(-r / 18.0) <= target
        if r > 2:
            assert math.exp(-(r - 2) / 18.0) > target

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            repetition_schedule(-1)


class TestHeaderBits:
    def test_values(self):
        assert [za_header_bits(l) for l in range(1, 9)] == [1, 1, 2, 3, 3, 4, 4, 4]


class TestHamOracleConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HamOracleConfig(error_prob=0.4)
        with pytest.raises(ValueError):
            HamOracleConfig(c_ham=-1.0)
        for c_ham in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                HamOracleConfig(c_ham=c_ham)

    def test_overflowing_cost_rejected(self):
        cfg = HamOracleConfig(c_ham=1e308)
        assert cfg.cost(1) == math.ceil(1e308)
        with pytest.raises(ValueError, match="overflows"):
            cfg.cost(4)

    def test_costs(self):
        cfg = HamOracleConfig()
        assert cfg.cost(0) == 0
        assert cfg.cost(1) == 1
        assert cfg.cost(4) == 8
        assert cfg.cost(6) == math.ceil(6 * math.log2(6))
        assert HamOracleConfig(c_ham=2.0).cost(4) == 16


class TestSymmetricAndProtocol:
    def test_ell0_nonzero_rejected(self):
        with pytest.raises(ValueError, match="ell0"):
            compile_symand(symmetric_profile(or_function(4)))

    def test_non_symmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            compile_symand(symmetric_profile(projection(3, 1)))

    def test_input_range(self):
        with pytest.raises(ValueError, match="cube"):
            compile_symand(STEP4_PROFILE).run(16, 0)

    def test_and4_exhaustive(self):
        f = and_function(4)
        protocol = compile_symand(symmetric_profile(f))
        for x in range(16):
            for y in range(16):
                out, ledger = protocol.run(x, y)
                assert out == f.table[x & y]
                assert ledger.total <= 4  # threshold, maybe header+answer

    def test_step4_exhaustive(self):
        protocol = compile_symand(STEP4_PROFILE)
        for x in range(16):
            for y in range(16):
                out, ledger = protocol.run(x, y, seed=x * 16 + y)
                assert out == STEP4.table[x & y], (x, y)

    def test_negated_profile_exhaustive(self):
        protocol = compile_symand(STEP4_NEG_PROFILE)
        seen_note = False
        for x in range(16):
            for y in range(16):
                out, ledger = protocol.run(x, y)
                assert out == STEP4_NEG.table[x & y], (x, y)
                seen_note = seen_note or any("negated" in n for n in ledger.notes)
        assert seen_note

    def test_constant_after_orientation(self):
        profile = symmetric_profile(constant_function(3, 1))
        out, ledger = compile_symand(profile).run(5, 3)
        assert out == 1
        assert any("constant" in n for n in ledger.notes)
        assert ledger.total == 0

    def test_early_exit_cost(self):
        out, ledger = compile_symand(STEP4_PROFILE).run(0, 15)
        assert out == 0
        assert ledger.total == 2
        assert any("early exit" in n for n in ledger.notes)

    def test_dense_run_structure(self):
        # x = y with one zero each: search must land at delta = 0
        x = y = 0b1110
        out, ledger = compile_symand(STEP4_PROFILE).run(x, y, seed=1)
        assert out == STEP4.table[x & y] == 1
        reps = repetition_schedule(2)
        # single probe decides delta >= 1 is false
        assert ledger.subprotocol_invocations == (("ham_1", HamOracleConfig().cost(1), reps),)
        assert ledger.bits_sent_alice == 1 + za_header_bits(2)
        assert ledger.bits_sent_bob == 2

    def test_ledger_bound_dense(self):
        cfg = HamOracleConfig()
        ell1 = 2
        cap = 2 * (ell1 - 1)
        reps = repetition_schedule(cap)
        search_iters = math.ceil(math.log2(cap + 1))
        budget = 2 + za_header_bits(ell1) + 1 + search_iters * reps * cfg.cost(cap)
        protocol = compile_symand(STEP4_PROFILE, cfg)
        for x in range(16):
            for y in range(16):
                _, ledger = protocol.run(x, y)
                assert ledger.total <= budget

    def test_header_discrepancy_note(self):
        # ell1 = 4: charged header differs from the tight encoding
        f = from_profile([0, 0, 0, 0, 0, 1, 1, 1, 1])
        x = y = 0b11111110
        out, ledger = compile_symand(symmetric_profile(f)).run(x, y, seed=0)
        assert out == f.table[x & y]
        assert any("header charged" in n for n in ledger.notes)

    def test_deterministic_given_seed(self):
        cfg = HamOracleConfig(error_prob=0.2)
        runs = [compile_symand(STEP4_PROFILE, cfg).run(0b1110, 0b1101, seed=7)
                for _ in range(2)]
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_threshold_cost_computed_on_first_use(self):
        # cost(1) is finite and cost(2) overflows: a run that probes only
        # threshold 1 succeeds, one that reaches threshold 2 raises
        protocol = compile_symand(STEP4_PROFILE, HamOracleConfig(c_ham=1e308))
        assert protocol.run(0, 15)[1].total == 2  # early exit, no probe
        _, ledger = protocol.run(0b1110, 0b1110)
        assert [label for label, _, _ in ledger.subprotocol_invocations] == ["ham_1"]
        with pytest.raises(ValueError, match="threshold-2 call overflows"):
            protocol.run(0b1110, 0b1101)

    def test_injected_error_rate(self):
        cap = 2
        target = 1.0 / (3.0 * (math.floor(math.log2(cap)) + 1))
        protocol = compile_symand(STEP4_PROFILE, HamOracleConfig(error_prob=target))
        x, y = 0b1110, 0b1101
        want = STEP4.table[x & y]
        errors = sum(protocol.run(x, y, seed=t)[0] != want for t in range(800))
        assert errors / 800 <= 1.0 / 3.0 + 0.02

    def test_sampled_n6(self):
        import random

        f = from_profile([0, 0, 0, 0, 0, 1, 1])
        protocol = compile_symand(symmetric_profile(f))
        rng = random.Random(5)
        for t in range(1500):
            x = rng.randrange(64)
            y = rng.randrange(64)
            out, _ = protocol.run(x, y, seed=t)
            assert out == f.table[x & y], (x, y)


ERROR_PROBS = (0.0, 0.1, 1.0 / 3.0)
INNERS = (and_inner(), ip_inner(2), disj_le1_inner(3))


def assert_matches_per_call(got, want):
    (out, ledger), (want_out, want_ledger) = got, want
    assert out == want_out
    assert ledger.total == want_ledger.total
    assert sum(r for _, _, r in ledger.subprotocol_invocations) == len(want_ledger.calls)
    assert ledger.bits_sent_alice == want_ledger.bits_sent_alice
    assert ledger.bits_sent_bob == want_ledger.bits_sent_bob
    assert list(ledger.notes) == want_ledger.notes
    expanded = [(label, c) for label, c, r in ledger.subprotocol_invocations
                for _ in range(r)]
    assert expanded == want_ledger.calls


class TestRunLengthLedger:
    """Each compiled protocol against its one-entry-per-call reference loop."""

    @given(st.data(), st.integers(1, 3), st.sampled_from(INNERS),
           st.integers(0, 5), st.integers(1, 9), st.sampled_from(ERROR_PROBS),
           st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_bcw(self, data, n, g, cost, reps, p, seed):
        bits = data.draw(st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n))
        tree = optimal_decision_tree(BooleanFunction(n, tuple(bits)))
        cells = list(domain(g))
        x = y = z = 0
        for i in range(n):
            a, b = data.draw(st.sampled_from(cells))
            x |= a << (i * g.k)
            y |= b << (i * g.k)
            z |= int(value_matrix(g)[a, b]) << i
        assert_matches_per_call(
            compile_bcw(tree, cost, reps, inject_error=p).run(z, seed),
            per_call_bcw(tree, g, cost, reps, x, y, inject_error=p, seed=seed))

    @given(st.data(), st.integers(2, 12), st.integers(0, 1),
           st.sampled_from((0.5, 1.0, 2.0)), st.sampled_from(ERROR_PROBS),
           st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_symand(self, data, n, low, c_ham, p, seed):
        # a constant lower half keeps ell0 = 0
        upper = data.draw(st.lists(st.integers(0, 1), min_size=n - n // 2,
                                   max_size=n - n // 2))
        profile = profile_from_values([low] * (n // 2 + 1) + upper)
        full = (1 << n) - 1

        def draw_input():
            if data.draw(st.booleans()):  # few zeros, so the search runs
                zeros = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
                return full & ~sum(1 << z for z in zeros)
            return data.draw(st.integers(0, full))

        x, y = draw_input(), draw_input()
        cfg = HamOracleConfig(c_ham=c_ham, error_prob=p)
        assert_matches_per_call(compile_symand(profile, cfg).run(x, y, seed),
                                per_call_symand(profile, x, y, cfg, seed=seed))

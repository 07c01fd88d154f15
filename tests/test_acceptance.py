"""Acceptance gate: one test per numbered criterion, each printing a
single [PASS]/[FAIL] line and enforcing its runtime budget."""

import contextlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from blockcomp import cli
from blockcomp.approxdeg import approx_degree, dual_witness
from blockcomp.applications import padding_identity_check, reduction_plan
from blockcomp.boolcube import (BooleanFunction, and_inner, disj_le1_inner,
                                from_profile, ip_inner, spectrum_of_values,
                                symmetric_profile)
from blockcomp.errors import DegeneratePlan, NotSymmetric, SizeGuardExceeded
from blockcomp.mainlemma import opnorm_bound
from blockcomp.protocols import (HamOracleConfig, compile_bcw, compile_symand,
                                 dense_input, optimal_decision_tree,
                                 repetition_schedule, za_header_bits)
from blockcomp.specdisc import (disj_lambda, disj_pair, disj_weights,
                                ip_pair, knuth_eigenvalue,
                                eigenspace_dimension, spectral_certificate)
from oracles import (and_function, block_compose, dense, disj_lambda_diff_closed,
                     dual_system_witness, johnson_matrix, lp_feasible,
                     operator_norm, or_function, parity_function,
                     require_materialized, restricted_composition, tree_depth)

THIRD = Fraction(1, 3)


@contextlib.contextmanager
def criterion(num, desc, budget=None):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if budget is not None:
            assert elapsed < budget, \
                f"criterion {num} took {elapsed:.1f}s, budget {budget}s"
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc} ({elapsed:.1f}s)")


def test_criterion_1_ip_closed_forms():
    with criterion(1, "ip pair norms match closed forms for k=2..5", budget=5):
        for k in range(2, 6):
            pair = ip_pair(k)
            big_k = 1 << k
            avg = operator_norm((dense(pair, 0) + dense(pair, 1)) / 2.0)
            diff = operator_norm((dense(pair, 0) - dense(pair, 1)) / 2.0)
            assert abs(avg - 1.0 / math.sqrt(big_k * (big_k - 1))) <= 1e-10, k
            assert abs(diff - 1.0 / ((big_k - 1) * math.sqrt(big_k))) <= 1e-10, k


def test_criterion_2_knuth_spectrum():
    with criterion(2, "intersection-matrix spectra and unit top eigenvalues",
                   budget=30):
        for k, p in ((6, 2), (9, 3)):
            for s in (0, 1):
                mat = johnson_matrix(k, p, s).matrix.astype(float)
                got = sorted(np.linalg.eigvalsh(mat).tolist())
                want = sorted(
                    float(knuth_eigenvalue(k, p, s, t))
                    for t in range(p + 1)
                    for _ in range(eigenspace_dimension(k, t)))
                assert len(got) == len(want)
                assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-8
            # normalized mu matrices: top eigenvalue exactly 1 on the
            # M-scaled rectangle
            m, _, _ = disj_weights(k)
            assert disj_lambda(k, 0, 0) * m == 1
            assert disj_lambda(k, 1, 0) * m == 1


def test_criterion_3_disj_bound():
    with criterion(3, "disjointness rho <= 3/k and exact lambda differences"):
        for k in (3, 6, 9, 12):
            cert = spectral_certificate(disj_pair(k))
            assert cert.rho <= 3.0 / k + 1e-9, k
            p = k // 3
            for t in range(p + 1):
                direct = disj_lambda(k, 0, t) - disj_lambda(k, 1, t)
                assert direct == disj_lambda_diff_closed(k, t), (k, t)


def _witness_suite():
    for n in (1, 2, 3):
        size = 1 << n
        for bits in range(1, (1 << size) - 1):
            yield BooleanFunction(n, tuple((bits >> i) & 1 for i in range(size)))
    yield or_function(4)
    yield and_function(4)
    yield parity_function(4)
    yield parity_function(5)


def test_criterion_4_dual_witness_suite():
    with criterion(4, "exact dual witnesses and the Farkas dichotomy",
                   budget=300):
        for f in _witness_suite():
            w = dual_witness(f, THIRD)
            # (a)-(d) re-derived from the raw measure, zero tolerance
            assert sum((v for x, v in w.q.items() if f.table[x]),
                       Fraction(0)) == 1
            assert sum((abs(v) for v in w.q.values()), Fraction(0)) < 3
            sp = spectrum_of_values(f.n, w.q)
            coeff_bound = Fraction(3, 1 << f.n)
            assert all(abs(c) <= coeff_bound for c in sp.coeffs.values())
            assert all(wi.bit_count() >= w.degree for wi in sp.coeffs)
            for cap in range(f.n + 1):
                primal = lp_feasible(f, THIRD, cap)
                alt, _ = dual_system_witness(f, THIRD, cap)
                assert (primal is None) != (alt is None), (f.table, cap)
        for n in range(1, 6):
            assert approx_degree(parity_function(n), THIRD).degree == n


def test_criterion_5_mainlemma_chain():
    with criterion(5, "witness-matrix chain with exact traces and norm bounds",
                   budget=120):
        outers = (parity_function(2), and_function(2), or_function(3))
        inners = ((ip_pair(2), ip_inner(2)), (disj_pair(3), disj_le1_inner(3)))
        for f, (pair, g) in itertools.product(outers, inners):
            w = dual_witness(f, THIRD)
            assert w.dot(f) == 1
            mat = require_materialized(w.q, w.n, pair)
            assert np.abs(mat).sum() == pytest.approx(float(w.l1()), abs=1e-9)
            exact = operator_norm(mat)
            scale = math.sqrt(pair.k_a * pair.k_b) ** w.n
            bound = opnorm_bound(w, spectral_certificate(pair).rho, scale)
            assert exact <= bound + 1e-9
            values, defined = restricted_composition(f, g, pair)
            rng = np.random.default_rng(hash((f.table, pair.k_a)) & 0xFFFF)
            for _ in range(100):
                noise = rng.uniform(-1 / 6, 1 / 6, size=values.shape)
                f_tilde = np.where(defined, values + noise, 0.0)
                trace_norm = float(np.linalg.svd(f_tilde, compute_uv=False).sum())
                correlation = abs(float((mat * f_tilde).sum()))
                assert trace_norm >= correlation / exact - 1e-9


def test_criterion_6_reduction_identities():
    with criterion(6, "padding identities across all in-guard plans, n <= 8"):
        verified = 0
        cases = set()
        for n in range(1, 9):
            for bits in range(1 << (n + 1)):
                profile = [(bits >> m) & 1 for m in range(n + 1)]
                f = from_profile(profile)
                for c in (1.0, 12.0):
                    try:
                        plan = reduction_plan(symmetric_profile(f), c=c, k_override=3)
                    except DegeneratePlan:
                        continue
                    pads = (plan.ones_pad, plan.zeros_pad,
                            plan.composed_ones_pad, plan.composed_zeros_pad)
                    if plan.valid:
                        assert min(pads) >= 0, (profile, c)
                    elif min(pads) < 0:
                        assert not plan.valid
                    if not plan.valid:
                        continue
                    try:
                        held = padding_identity_check(plan, symmetric_profile(f))
                    except SizeGuardExceeded:
                        continue
                    assert held is True, (profile, c, plan.case)
                    verified += 1
                    cases.add(plan.case)
        # the l1 case needs ell1 >= 2k-1 = 5, out of reach at n <= 8;
        # exercise it once above the sweep range
        f12 = from_profile([0] * 8 + [1] * 5)
        plan12 = reduction_plan(symmetric_profile(f12), k_override=3)
        assert plan12.valid and padding_identity_check(plan12, symmetric_profile(f12)) is True
        verified += 1
        cases.add(plan12.case)
        assert verified > 0
        assert cases >= {"large-l0", "small-l0", "l1"}


def test_criterion_7_protocol_suite():
    with criterion(7, "protocol correctness, error schedule, and cost model",
                   budget=180):
        step4 = from_profile([0, 0, 0, 1, 1])
        tree2 = optimal_decision_tree(parity_function(2))
        composed2 = block_compose(parity_function(2), and_inner())
        n16 = {l1: from_profile([0] * (17 - l1) + [1] * l1) for l1 in (2, 4, 8)}
        step4_symand = compile_symand(symmetric_profile(step4))
        n16_symand = {l1: compile_symand(symmetric_profile(f)) for l1, f in n16.items()}

        # --- 1e5 zero-error trials are exactly correct; the and_inner
        # blocks of x and y have the values x & y
        rng = random.Random(2024)
        total = 0
        bcw = compile_bcw(tree2, 2, 1)
        for t in range(20_000):
            x, y = rng.randrange(4), rng.randrange(4)
            out, _ = bcw.run(x & y, seed=1_000_003 * t)
            assert out == composed2.value(x, y)
            total += 1
        for t in range(40_000):
            x, y = rng.randrange(16), rng.randrange(16)
            out, _ = step4_symand.run(x, y, seed=1_000_003 * t)
            assert out == step4.table[x & y]
            total += 1
        f16 = n16[4]
        for t in range(40_000):
            x = dense_input(rng, 16, 4)
            y = dense_input(rng, 16, 4)
            out, _ = n16_symand[4].run(x, y, seed=1_000_003 * t)
            assert out == f16.table[x & y]
            total += 1
        assert total == 100_000

        # --- 1e4 trials with the scheduled injected error stay under 1/3+0.02
        errors = 0
        bcw = compile_bcw(tree2, 2, 33, inject_error=1 / 3)
        for t in range(5_000):
            x, y = rng.randrange(4), rng.randrange(4)
            out, _ = bcw.run(x & y, seed=7 * t + 1)
            errors += out != composed2.value(x, y)
        cap = 2 * (2 - 1)
        scheduled = 1.0 / (3.0 * (math.floor(math.log2(cap)) + 1))
        cfg = HamOracleConfig(error_prob=scheduled)
        noisy_step4 = compile_symand(symmetric_profile(step4), cfg)
        for t in range(5_000):
            x = dense_input(rng, 4, 2)
            y = dense_input(rng, 4, 2)
            out, _ = noisy_step4.run(x, y, seed=13 * t + 5)
            errors += out != step4.table[x & y]
        assert errors / 10_000 <= 1 / 3 + 0.02

        # --- ledgers never exceed the closed-form budgets
        bcw = compile_bcw(tree2, 2, 5)
        for t in range(2_000):
            x, y = rng.randrange(4), rng.randrange(4)
            _, ledger = bcw.run(x & y, seed=t)
            assert ledger.total <= tree_depth(tree2) * 5 * 2
        cfg0 = HamOracleConfig()
        worst_bits = {}
        for l1, f in n16.items():
            delta = 2 * (l1 - 1)
            reps = repetition_schedule(delta)
            budget_bits = (2 + za_header_bits(l1) + 1
                           + math.ceil(math.log2(delta + 1)) * reps * cfg0.cost(delta))
            worst = 0
            for t in range(2_000):
                x = dense_input(rng, 16, l1)
                y = dense_input(rng, 16, l1)
                out, ledger = n16_symand[l1].run(x, y, seed=31 * t + l1)
                assert out == f.table[x & y]
                assert ledger.total <= budget_bits, (l1, ledger.total)
                worst = max(worst, ledger.total)
            worst_bits[l1] = worst

        # --- single fitted constant across the ell1 family
        model = {l1: l1 * max(math.log2(l1), 1.0) ** 2
                 * max(math.log2(max(math.log2(l1), 2.0)), 1.0)
                 for l1 in worst_bits}
        ratios = {l1: worst_bits[l1] / model[l1] for l1 in worst_bits}
        c_fit = max(ratios.values())
        assert all(worst_bits[l1] <= c_fit * model[l1] for l1 in worst_bits)
        assert min(ratios.values()) >= c_fit / 32.0, ratios


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "byte-identical CLI reruns under a fixed seed"):
        f_path = tmp_path / "f.json"
        f_path.write_text(json.dumps({"profile": [0, 0, 0, 1, 1]}))
        p_path = tmp_path / "p.json"
        p_path.write_text(json.dumps({"n": 2, "bits": "0110"}))
        runs = [
            ["simulate", "--protocol", "symand", "--f", str(f_path),
             "--dense", "--trials", "40", "--seed", "3"],
            ["simulate", "--protocol", "bcw", "--f", str(p_path),
             "--g-family", "and", "--trials", "40", "--seed", "3",
             "--repetitions", "3", "--inject-error", "0.2"],
            ["mainlemma", "--f", str(p_path), "--family", "ip", "--k", "2"],
            ["specdisc", "--family", "disj", "--k", "6"],
            ["batch", "--grid", None],
        ]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"family": ["ip"], "k": [2, 3]}))
        runs[-1][-1] = str(grid)
        for argv in runs:
            a = tmp_path / "a.out"
            b = tmp_path / "b.out"
            assert cli.main(argv + ["--out", str(a)]) == 0
            assert cli.main(argv + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), argv

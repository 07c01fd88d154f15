import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from blockcomp.boolcube import (InnerFunction, and_inner, disj_le1_inner,
                                ip_inner, restrict_rows, weight_subsets)
from blockcomp.errors import SizeGuardExceeded
from blockcomp.specdisc import (DistributionPair, PAIR_SIDE_CAP, disj_lambda,
                                disj_pair, disj_weights, eigenspace_dimension,
                                family_bound, ip_pair, knuth_eigenvalue,
                                operator_norm, spectral_certificate,
                                uniform_pair, validate_pair)
from oracles import (disj_lambda_diff_closed, ip_closed_forms, johnson_matrix,
                     random_inner)


def hand_built(pair):
    """The same distributions, built with the 4-argument constructor."""
    return DistributionPair(pair.i_a, pair.i_b, pair.mu0, pair.mu1)


def loop_uniform_pair(g, rows=None, cols=None):
    """Reference for uniform_pair: the literal double loop over g.value."""
    side = 1 << g.k
    i_a = tuple(rows) if rows is not None else tuple(range(side))
    i_b = tuple(cols) if cols is not None else tuple(range(side))
    cells = {0: [], 1: []}
    for i, x in enumerate(i_a):
        for j, y in enumerate(i_b):
            v = g.value(x, y)
            if v is not None:
                cells[v].append((i, j))
    mu0, mu1 = ({pos: Fraction(1, len(cells[b])) for pos in cells[b]}
                for b in (0, 1))
    return DistributionPair(i_a, i_b, mu0, mu1)


def assert_same_pair(got, want):
    """Equal labels, masses and spectrum, with mu0/mu1 in the same order."""
    assert got == want
    assert list(got.mu0.items()) == list(want.mu0.items())
    assert list(got.mu1.items()) == list(want.mu1.items())


RECTANGLE_GUARD = 24


def rectangle_discrepancy(pair: DistributionPair, g: InnerFunction) -> float:
    """Max over all sub-rectangles of |sum mu(x,y) (-1)^g(x,y)| for the
    combined distribution mu = (mu0+mu1)/2.  Exhaustive over subsets of
    the smaller side."""
    if pair.k_a + pair.k_b > RECTANGLE_GUARD:
        raise SizeGuardExceeded(
            f"|I_A| + |I_B| = {pair.k_a + pair.k_b} exceeds {RECTANGLE_GUARD}")
    signed = np.zeros((pair.k_a, pair.k_b))
    for b in (0, 1):
        for (i, j), mass in pair.mu(b).items():
            v = g.value(pair.i_a[i], pair.i_b[j])
            if v is None:
                raise ValueError(f"mass on undefined point ({pair.i_a[i]},{pair.i_b[j]})")
            signed[i, j] += float(mass) / 2.0 * (1 if v == 0 else -1)
    if pair.k_b <= pair.k_a:
        cols = signed
    else:
        cols = signed.T
    n_sub = cols.shape[1]
    best = 0.0
    for mask in range(1 << n_sub):
        if mask == 0:
            continue
        sel = [j for j in range(n_sub) if (mask >> j) & 1]
        sums = cols[:, sel].sum(axis=1)
        pos = sums[sums > 0].sum()
        neg = -sums[sums < 0].sum()
        best = max(best, pos, neg)
    return float(best)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(7)) == pytest.approx(1.0, abs=1e-12)

    def test_all_ones(self):
        assert operator_norm(np.ones((6, 6))) == pytest.approx(6.0, abs=1e-10)

    def test_zero_and_empty(self):
        assert operator_norm(np.zeros((4, 4))) == 0.0
        assert operator_norm(np.zeros((0, 0))) == 0.0

    def test_non_finite_rejected(self):
        m = np.ones((3, 3))
        m[1, 2] = np.nan
        with pytest.raises(ValueError):
            operator_norm(m)

    def test_rectangular_mixed_sign_vs_svd(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(3, 5))
        ref = np.linalg.svd(m, compute_uv=False)[0]
        assert operator_norm(m) == pytest.approx(ref, abs=1e-10)

    def test_nonnegative_vs_svd(self):
        rng = np.random.default_rng(11)
        m = rng.uniform(0.0, 1.0, size=(20, 20))
        ref = np.linalg.svd(m, compute_uv=False)[0]
        assert operator_norm(m) == pytest.approx(ref, abs=1e-10)
        assert operator_norm(-m) == pytest.approx(ref, abs=1e-10)

    def test_johnson_disjointness_matrix(self):
        jm = johnson_matrix(6, 2, 0)
        eigs = {knuth_eigenvalue(6, 2, 0, t) for t in range(3)}
        ref = max(abs(e) for e in eigs)
        dense = np.abs(np.linalg.eigvalsh(jm.matrix.astype(float))).max()
        got = operator_norm(jm.matrix)
        assert got == pytest.approx(float(ref), abs=1e-8)
        assert got == pytest.approx(dense, abs=1e-8)

    def test_large_mixed_sign_uncertifiable(self):
        # mixed-sign with more than 512 rows and columns
        m = np.ones((513, 513))
        m[0, 0] = -1.0
        ref = np.linalg.svd(m, compute_uv=False)[0]
        assert operator_norm(m) == pytest.approx(ref, rel=1e-12)


class TestPairsAndCertificates:
    def test_uniform_pair_validates(self):
        g = ip_inner(2)
        pair = uniform_pair(g)
        validate_pair(pair, g)
        assert pair.mass(0) == 1 and pair.mass(1) == 1

    def test_uniform_pair_missing_value(self):
        with pytest.raises(ValueError):
            uniform_pair(and_inner(), rows=(0,), cols=(0, 1))

    @pytest.mark.parametrize("g, rows, cols", [
        (random_inner(2, 5), None, None),
        (random_inner(3, 9), (1, 2, 6), (0, 3, 4, 7)),
        (ip_inner(3), None, None),
        (ip_inner(3), range(1, 8), None),
        (and_inner(), None, None),
        (restrict_rows(ip_inner(2), (1, 3)), None, None),
        (restrict_rows(ip_inner(3), (2, 5, 6)), (2, 5, 6), (1, 3, 4)),
    ])
    def test_uniform_pair_matches_loop(self, g, rows, cols):
        assert_same_pair(uniform_pair(g, rows, cols), loop_uniform_pair(g, rows, cols))

    @pytest.mark.parametrize("k", range(1, 6))
    def test_ip_pair_is_uniform_pair(self, k):
        pair = ip_pair(k)
        rows = range(1, 1 << k)
        assert_same_pair(pair, replace(loop_uniform_pair(ip_inner(k), rows),
                                       spectrum=pair.spectrum))
        assert pair.spectrum.gram

    @pytest.mark.parametrize("k", [3, 6, 9])
    def test_disj_pair_is_uniform_pair(self, k):
        pair = disj_pair(k)
        subsets = weight_subsets(k, k // 3)
        want = loop_uniform_pair(disj_le1_inner(k), subsets, subsets)
        assert_same_pair(pair, replace(want, spectrum=pair.spectrum))
        assert pair.spectrum.eigen == tuple(
            (disj_lambda(k, 0, t), disj_lambda(k, 1, t)) for t in range(k // 3 + 1))

    def test_validate_mass_errors(self):
        g = and_inner()
        pair = uniform_pair(g)
        halved = DistributionPair(
            pair.i_a, pair.i_b,
            {k: v / 2 for k, v in pair.mu0.items()}, pair.mu1)
        with pytest.raises(ValueError, match="mass"):
            validate_pair(halved, g)

    def test_validate_support_errors(self):
        g = and_inner()
        # all of mu1's mass on a 0-cell
        bad = DistributionPair((0, 1), (0, 1),
                               {(1, 1): Fraction(1)}, {(0, 0): Fraction(1)})
        with pytest.raises(ValueError, match="mu0"):
            validate_pair(bad, g)

    def test_validate_undefined_cell(self):
        g = restrict_rows(ip_inner(1), (1,))
        bad = DistributionPair((0, 1), (0, 1),
                               {(0, 0): Fraction(1)}, {(1, 1): Fraction(1)})
        with pytest.raises(ValueError):
            validate_pair(bad, g)

    def test_equal_distributions_degenerate(self):
        # mu0 = mu1 kills the difference term entirely
        mass = {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}
        pair = DistributionPair((0, 1), (0, 1), dict(mass), dict(mass))
        cert = spectral_certificate(pair)
        assert cert.diff_scaled == pytest.approx(0.0, abs=1e-14)
        assert cert.rho == pytest.approx(max(cert.sum_scaled - 1, 0.0), abs=1e-14)

    def test_qcc_bound_bits(self):
        cert = spectral_certificate(ip_pair(3))
        assert cert.qcc_bound_bits() == pytest.approx(math.log2(1 / cert.rho))
        # identical uniform distributions: diff vanishes and sum_scaled is 1
        mass = {(i, j): Fraction(1, 4) for i in range(2) for j in range(2)}
        flat = spectral_certificate(DistributionPair(
            (0, 1), (0, 1), dict(mass), dict(mass)))
        assert flat.rho == 0
        assert flat.qcc_bound_bits() == math.inf


class TestInnerProductPair:
    @pytest.mark.parametrize("k", range(2, 6))
    def test_closed_forms(self, k):
        pair = ip_pair(k)
        cert = spectral_certificate(pair)
        big_k = 1 << k
        avg_ref, diff_ref = ip_closed_forms(k)
        scale = math.sqrt((big_k - 1) * big_k)
        assert cert.sum_scaled == pytest.approx(scale * avg_ref, abs=1e-10)
        assert cert.diff_scaled == pytest.approx(scale * diff_ref, abs=1e-10)

    def test_support(self):
        k = 2
        g = ip_inner(k)
        pair = ip_pair(k)
        validate_pair(pair, g)
        assert pair.i_a == (1, 2, 3)
        assert pair.i_b == (0, 1, 2, 3)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_rho_bound(self, k):
        cert = spectral_certificate(ip_pair(k))
        assert cert.rho <= 1.0 / math.sqrt((1 << k) - 1) + 1e-9

    @pytest.mark.parametrize("k", range(1, 6))
    def test_exact_certificate_matches_svd(self, k):
        pair = ip_pair(k)
        exact, dense = spectral_certificate(pair), spectral_certificate(hand_built(pair))
        assert exact.rho_sq == Fraction(1, (1 << k) - 1)
        assert dense.rho_sq is None
        for field in ("sum_scaled", "diff_scaled", "rho"):
            assert getattr(exact, field) == pytest.approx(getattr(dense, field), rel=1e-12)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_bound_met_with_equality(self, k):
        bound, within = family_bound("ip", k, spectral_certificate(ip_pair(k)))
        assert within
        assert bound == 1.0 / math.sqrt((1 << k) - 1)

    def test_family_bound_needs_exact_certificate(self):
        with pytest.raises(ValueError):
            family_bound("ip", 2, spectral_certificate(hand_built(ip_pair(2))))
        with pytest.raises(ValueError):
            family_bound("and", 2, spectral_certificate(ip_pair(2)))

    def test_validation(self):
        with pytest.raises(ValueError):
            ip_pair(0)
        with pytest.raises(SizeGuardExceeded):
            ip_pair(10)

    def test_side_cap_alignment(self):
        assert PAIR_SIDE_CAP == 512


class TestJohnson:
    def test_identity_case(self):
        jm = johnson_matrix(3, 1, 1)
        assert np.array_equal(jm.matrix, np.eye(3, dtype=np.int8))

    def test_complement_case(self):
        jm = johnson_matrix(3, 1, 0)
        assert np.array_equal(jm.matrix, np.ones((3, 3), dtype=np.int8) - np.eye(3, dtype=np.int8))

    def test_row_sums_and_symmetry(self):
        jm = johnson_matrix(6, 2, 0)
        assert (jm.matrix.sum(axis=1) == math.comb(4, 2)).all()
        assert np.array_equal(jm.matrix, jm.matrix.T)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            johnson_matrix(4, 3, 1)  # 2p > k
        with pytest.raises(ValueError):
            johnson_matrix(6, 2, 3)  # s > p
        with pytest.raises(ValueError):
            knuth_eigenvalue(6, 2, 0, 3)  # t > p

    def test_commutation_exact(self):
        a = johnson_matrix(6, 2, 0).matrix.astype(np.int64)
        b = johnson_matrix(6, 2, 1).matrix.astype(np.int64)
        assert np.array_equal(a @ b, b @ a)

    def test_knuth_t0_collapse(self):
        for k, p, s in ((6, 2, 0), (6, 2, 1), (9, 3, 2), (8, 4, 3)):
            assert knuth_eigenvalue(k, p, s, 0) == math.comb(p, s) * math.comb(k - p, p - s)

    def test_knuth_specific_values(self):
        assert knuth_eigenvalue(6, 2, 1, 0) == 8
        assert knuth_eigenvalue(6, 2, 0, 0) == 6

    def test_multiplicities(self):
        assert eigenspace_dimension(6, 0) == 1
        assert eigenspace_dimension(6, 1) == 5
        assert eigenspace_dimension(6, 2) == 9
        for k, p in ((6, 2), (9, 3), (8, 4)):
            assert sum(eigenspace_dimension(k, t) for t in range(p + 1)) == math.comb(k, p)

    @pytest.mark.parametrize("k,p", [(6, 2), (9, 3)])
    def test_eigenvalue_multisets(self, k, p):
        for s in (0, 1):
            mat = johnson_matrix(k, p, s).matrix.astype(float)
            got = sorted(np.linalg.eigvalsh(mat).tolist())
            want = sorted(
                float(knuth_eigenvalue(k, p, s, t))
                for t in range(p + 1)
                for _ in range(eigenspace_dimension(k, t))
            )
            assert got == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("k,p", [(6, 2), (9, 3)])
    def test_simultaneous_diagonalization_oracle(self, k, p):
        """Eigenvectors of a generic combination give joint (lambda_0, lambda_1)
        Rayleigh pairs; their multiset must match the formula's, including
        the cross-matrix pairing by shared eigenspace."""
        j0 = johnson_matrix(k, p, 0).matrix.astype(float)
        j1 = johnson_matrix(k, p, 1).matrix.astype(float)
        _, vecs = np.linalg.eigh(j0 + math.pi * j1)
        got = sorted(
            (round(float(v @ j0 @ v), 6), round(float(v @ j1 @ v), 6))
            for v in vecs.T
        )
        want = sorted(
            (round(float(knuth_eigenvalue(k, p, 0, t)), 6),
             round(float(knuth_eigenvalue(k, p, 1, t)), 6))
            for t in range(p + 1)
            for _ in range(eigenspace_dimension(k, t))
        )
        assert got == want


class TestDisjointnessPair:
    def test_weights_k3(self):
        assert disj_weights(3) == (3, 6, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            disj_pair(4)
        with pytest.raises(SizeGuardExceeded):
            disj_pair(15)

    @pytest.mark.parametrize("k", [3, 6])
    def test_pair_masses_and_support(self, k):
        from blockcomp.boolcube import disj_le1_inner

        pair = disj_pair(k)
        validate_pair(pair, disj_le1_inner(k))

    @pytest.mark.parametrize("k", [3, 6, 9, 12])
    def test_top_eigenvalue_normalization(self, k):
        # both normalized mu_s matrices are (1/M)-row-stochastic, so their
        # top eigenvalue times M is exactly 1
        m, w0, w1 = disj_weights(k)
        for s, w in ((0, w0), (1, w1)):
            assert disj_lambda(k, s, 0) * m == 1
            assert knuth_eigenvalue(k, k // 3, s, 0) * m == w

    @pytest.mark.parametrize("k", [3, 6, 9, 12])
    def test_closed_form_diff_matches_knuth(self, k):
        p = k // 3
        for t in range(p + 1):
            direct = disj_lambda(k, 0, t) - disj_lambda(k, 1, t)
            assert direct == disj_lambda_diff_closed(k, t)

    def test_diff_bound_k6(self):
        m, _, _ = disj_weights(6)
        worst = max(abs(disj_lambda_diff_closed(6, t)) for t in range(1, 3))
        assert worst <= Fraction(6, m * 6)

    @pytest.mark.parametrize("k", [3, 6])
    def test_certificate(self, k):
        cert = spectral_certificate(disj_pair(k))
        assert cert.sum_scaled == pytest.approx(1.0, abs=1e-9)
        assert cert.diff_scaled == pytest.approx(9 / (4 * k), abs=1e-9)
        assert cert.rho <= 3.0 / k + 1e-9

    @pytest.mark.parametrize("k", [3, 6, 9, 12])
    def test_exact_certificate(self, k):
        pair = disj_pair(k)
        cert = spectral_certificate(pair)
        assert cert.rho_sq == Fraction(9, 4 * k) ** 2
        assert family_bound("disj", k, cert) == (3.0 / k, True)
        if k <= 6:
            dense = spectral_certificate(hand_built(pair))
            assert cert.rho == pytest.approx(dense.rho, rel=1e-12)


class TestRectangleDiscrepancy:
    def test_guard(self):
        with pytest.raises(SizeGuardExceeded):
            rectangle_discrepancy(ip_pair(4), ip_inner(4))

    def test_constant_inner_maximal(self):
        g = InnerFunction(1, np.zeros((2, 2), dtype=np.int8))
        mass = Fraction(1, 4)
        mu = {(i, j): mass for i in range(2) for j in range(2)}
        pair = DistributionPair((0, 1), (0, 1), dict(mu), dict(mu))
        assert rectangle_discrepancy(pair, g) == pytest.approx(1.0, abs=1e-12)

    def test_and_inner_half(self):
        g = and_inner()
        assert rectangle_discrepancy(uniform_pair(g), g) == pytest.approx(0.5, abs=1e-12)

    def test_mass_on_undefined_rejected(self):
        g = restrict_rows(and_inner(), (1,))
        pair = uniform_pair(and_inner())
        with pytest.raises(ValueError):
            rectangle_discrepancy(pair, g)

    def test_bounded_by_diff_scaled(self):
        for pair, g in ((ip_pair(2), ip_inner(2)),):
            cert = spectral_certificate(pair)
            rd = rectangle_discrepancy(pair, g)
            assert rd <= cert.diff_scaled + 1e-9

    def test_disj_bounded_by_diff_scaled(self):
        from blockcomp.boolcube import disj_le1_inner

        pair = disj_pair(3)
        cert = spectral_certificate(pair)
        rd = rectangle_discrepancy(pair, disj_le1_inner(3))
        assert rd <= cert.diff_scaled + 1e-9

    def test_literal_double_loop_oracle(self):
        rng = np.random.default_rng(3)
        g = InnerFunction(1, np.array([[0, 1], [1, 0]], dtype=np.int8))
        raw0 = [Fraction(int(v), 16) for v in rng.integers(1, 8, size=2)]
        raw1 = [Fraction(int(v), 16) for v in rng.integers(1, 8, size=2)]
        mu0 = {(0, 1): raw0[0], (1, 0): raw0[1]}
        mu1 = {(0, 0): raw1[0], (1, 1): raw1[1]}
        s0, s1 = sum(mu0.values()), sum(mu1.values())
        mu0 = {k: v / s0 for k, v in mu0.items()}
        mu1 = {k: v / s1 for k, v in mu1.items()}
        pair = DistributionPair((0, 1), (0, 1), mu0, mu1)

        signed = np.zeros((2, 2))
        for b, mu in ((0, mu0), (1, mu1)):
            for (i, j), mass in mu.items():
                signed[i, j] += float(mass) / 2 * (1 if g.value(i, j) == 0 else -1)
        best = 0.0
        for rmask in range(1, 4):
            for cmask in range(1, 4):
                rows = [i for i in range(2) if rmask >> i & 1]
                cols = [j for j in range(2) if cmask >> j & 1]
                best = max(best, abs(signed[np.ix_(rows, cols)].sum()))
        assert rectangle_discrepancy(pair, g) == pytest.approx(best, abs=1e-12)

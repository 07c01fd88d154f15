import math
from array import array
from fractions import Fraction

import numpy as np
import pytest

from blockcomp.boolcube import (UNDEF, InnerFunction, and_inner,
                                disj_le1_inner, ip_inner, weight_subsets)
from blockcomp.errors import SizeGuardExceeded
from blockcomp.specdisc import (DISJ_K_CAP, IP_K_CAP, PAIR_SIDE_CAP, disj_lambda,
                                disj_pair, disj_weights, eigenspace_dimension,
                                family_bound, family_pair, ip_pair, knuth_eigenvalue,
                                spectral_certificate)
from oracles import (block_pair, dense, dense_certificate, disj_lambda_diff_closed,
                     inner_of_rows, ip_closed_forms, johnson_matrix, operator_norm,
                     pair_matches, random_inner, restrict_rows, uniform_pair,
                     value_matrix)


def assert_same_block(got, want):
    """Equal side lengths and blocks."""
    assert (got.k_a, got.k_b) == (want.k_a, want.k_b)
    assert np.array_equal(block_pair(got).block, want.block)


RECTANGLE_GUARD = 24


def rectangle_discrepancy(pair, g: InnerFunction) -> float:
    """Max over all sub-rectangles of |sum mu(x,y) (-1)^g(x,y)| for the
    combined distribution mu = (mu0+mu1)/2.  Exhaustive over subsets of
    the smaller side."""
    pair = block_pair(pair)
    if pair.k_a + pair.k_b > RECTANGLE_GUARD:
        raise SizeGuardExceeded(
            f"|I_A| + |I_B| = {pair.k_a + pair.k_b} exceeds {RECTANGLE_GUARD}")
    signed = np.zeros((pair.k_a, pair.k_b))
    for b in (0, 1):
        mu = dense(pair, b)
        for i, j in zip(*np.nonzero(mu)):
            v = value_matrix(g)[pair.i_a[i], pair.i_b[j]]
            if v == UNDEF:
                raise ValueError(f"mass on undefined point ({pair.i_a[i]},{pair.i_b[j]})")
            signed[i, j] += mu[i, j] / 2.0 * (1 if v == 0 else -1)
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
        assert pair_matches(pair, g)
        assert dense(pair, 0).sum() == 1 and dense(pair, 1).sum() == 1

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
        pair = uniform_pair(g, rows, cols)
        side = range(1 << g.k)
        assert pair.i_a == tuple(side if rows is None else rows)
        assert pair.i_b == tuple(side if cols is None else cols)
        assert pair_matches(pair, g)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_ip_pair_is_uniform_pair(self, k):
        pair = ip_pair(k)
        assert_same_block(pair, uniform_pair(ip_inner(k), rows=range(1, 1 << k)))
        assert pair.spectrum.gram
        # the dominant row (K(K-1)/c^2, K/c^2) alone, c = K(K-1)/2
        big = 1 << k
        c = Fraction(big * (big - 1), 2)
        assert pair.spectrum.eigen == ((big * (big - 1) / c ** 2, big / c ** 2),)

    @pytest.mark.parametrize("k", [3, 6, 9])
    def test_disj_pair_is_uniform_pair(self, k):
        pair = disj_pair(k)
        subsets = weight_subsets(k, k // 3)
        assert_same_block(pair, uniform_pair(disj_le1_inner(k), subsets, subsets))
        assert pair.spectrum.eigen == tuple(
            (disj_lambda(k, 0, t), disj_lambda(k, 1, t)) for t in range(k // 3 + 1))

    @pytest.mark.parametrize("family,k", [("ip", k) for k in range(1, 10)]
                             + [("disj", k) for k in range(3, 13, 3)])
    def test_builtin_pair_matches_oracle(self, family, k):
        # no constructor checks that g takes both values on the rectangle:
        # it is a property of each family, checked on the block materialized
        # from the family's inner function
        pair, g = {"ip": (ip_pair, ip_inner),
                   "disj": (disj_pair, disj_le1_inner)}[family]
        pair, g = pair(k), g(k)
        block = block_pair(pair).block
        assert (block == 0).any() and (block == 1).any()
        assert pair_matches(pair, g)

    def test_validate_support_errors(self):
        # the oracle flags a pair whose cells carry the other value of g
        g = and_inner()
        flipped = InnerFunction(1, array("b", [1 - v for v in g.values]))
        assert pair_matches(uniform_pair(g), g)
        assert not pair_matches(uniform_pair(g), flipped)

    def test_validate_undefined_cell(self):
        # the oracle flags a pair with mass where g is undefined
        g = restrict_rows(ip_inner(1), (1,))
        assert not pair_matches(uniform_pair(ip_inner(1)), g)

    @pytest.mark.parametrize("b", [0, 1])
    def test_materialized_block_needs_both_values(self, b):
        g = inner_of_rows(1, [[1 - b, UNDEF], [UNDEF, 1 - b]])
        with pytest.raises(ValueError, match=f"no {b}-inputs"):
            uniform_pair(g)


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
        assert pair_matches(pair, g)
        assert (pair.k_a, pair.k_b) == (3, 4)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_rho_bound(self, k):
        cert = spectral_certificate(ip_pair(k))
        assert cert.rho <= 1.0 / math.sqrt((1 << k) - 1) + 1e-9

    @pytest.mark.parametrize("k", range(1, 6))
    def test_exact_certificate_matches_svd(self, k):
        pair = ip_pair(k)
        exact = spectral_certificate(pair)
        assert exact.rho_sq == Fraction(1, (1 << k) - 1)
        for got, ref in zip((exact.sum_scaled, exact.diff_scaled, exact.rho),
                            dense_certificate(pair)):
            assert got == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_bound_met_with_equality(self, k):
        key, bound, within = family_bound("ip", k, spectral_certificate(ip_pair(k)))
        assert within
        assert (key, bound) == ("bound_inv_sqrt_K_minus_1", 1.0 / math.sqrt((1 << k) - 1))

    def test_family_bound_needs_exact_certificate(self):
        with pytest.raises(ValueError):
            family_bound("and", 2, spectral_certificate(ip_pair(2)))
        with pytest.raises(ValueError, match="unknown family 'and'"):
            family_pair("and", 2)
        assert family_pair("ip", 3) == ip_pair(3)
        assert family_pair("disj", 6) == disj_pair(6)

    def test_validation(self):
        with pytest.raises(ValueError):
            ip_pair(0)
        with pytest.raises(SizeGuardExceeded):
            ip_pair(10)
        # refused on k alone: 1 << 20000 has too many digits to format
        with pytest.raises(SizeGuardExceeded, match=r"^ip k = 20000 .* k <= 9 "):
            ip_pair(20000)

    def test_side_cap_alignment(self):
        assert PAIR_SIDE_CAP == 512
        assert (IP_K_CAP, DISJ_K_CAP) == (9, 12)
        assert 1 << IP_K_CAP <= PAIR_SIDE_CAP < 1 << (IP_K_CAP + 1)
        assert math.comb(12, 4) <= PAIR_SIDE_CAP < math.comb(15, 5)


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
        # refused on k alone, before C(k, k/3) is formed
        for k in (30000, 3000000):
            with pytest.raises(SizeGuardExceeded, match=rf"^disj k = {k} .* k <= 12 "):
                disj_pair(k)

    @pytest.mark.parametrize("k", [3, 6])
    def test_pair_masses_and_support(self, k):
        assert pair_matches(disj_pair(k), disj_le1_inner(k))

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
        assert family_bound("disj", k, cert) == ("bound_3_over_k", 3.0 / k, True)
        if k <= 6:
            assert cert.rho == pytest.approx(dense_certificate(pair)[2], rel=1e-12)


class TestRectangleDiscrepancy:
    def test_guard(self):
        with pytest.raises(SizeGuardExceeded):
            rectangle_discrepancy(ip_pair(4), ip_inner(4))

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
        pair = disj_pair(3)
        cert = spectral_certificate(pair)
        rd = rectangle_discrepancy(pair, disj_le1_inner(3))
        assert rd <= cert.diff_scaled + 1e-9

    def test_literal_double_loop_oracle(self):
        g = random_inner(2, 5)
        pair = uniform_pair(g, rows=(0, 1, 2))
        table = value_matrix(g)
        counts = {b: sum(table[x, y] == b for x in pair.i_a for y in pair.i_b)
                  for b in (0, 1)}
        signed = np.zeros((3, 4))
        for i, x in enumerate(pair.i_a):
            for j, y in enumerate(pair.i_b):
                b = int(table[x, y])
                signed[i, j] = (1 if b == 0 else -1) / (2 * counts[b])
        best = 0.0
        for rmask in range(1, 8):
            for cmask in range(1, 16):
                rows = [i for i in range(3) if rmask >> i & 1]
                cols = [j for j in range(4) if cmask >> j & 1]
                best = max(best, abs(signed[np.ix_(rows, cols)].sum()))
        assert rectangle_discrepancy(pair, g) == pytest.approx(best, abs=1e-12)

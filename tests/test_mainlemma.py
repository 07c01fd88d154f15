import dataclasses
import itertools
import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from blockcomp import boolcube
from blockcomp.approxdeg import dual_witness
from blockcomp.boolcube import disj_le1_inner, from_profile, ip_inner
from blockcomp.errors import (ArityMismatch, SizeGuardExceeded,
                              WitnessNotApplicable)
from blockcomp.mainlemma import exact_opnorm_sq, mainlemma_certify, opnorm_bound
from blockcomp.specdisc import disj_pair, ip_pair, spectral_certificate
from oracles import (SWEEP_FUNCTIONS, and_function, block_pair, constant_function,
                     dense, fraction_opnorm_sq, operator_norm, or_function,
                     parity_function, require_materialized, restrict_rows,
                     restricted_composition, trace_norm_certificate, uniform_pair,
                     value_matrix, witness_shape)

THIRD = Fraction(1, 3)
SIXTH = Fraction(1, 6)

OUTERS = [parity_function(2), and_function(2), or_function(3)]
PAIRS = [(ip_pair(2), ip_inner(2)), (disj_pair(3), disj_le1_inner(3))]


def fourier_materialize(q, n, pair):
    """Independent assembly of h from the witness spectrum: the term for
    frequency w uses (mu0+mu1) at blocks outside w and (mu0-mu1) at blocks
    inside w (unhalved), weighted by q_hat_w."""
    size = 1 << n
    q_hat = {}
    for w in range(size):
        acc = Fraction(0)
        for z, coeff in q.items():
            acc += -coeff if (w & z).bit_count() & 1 else coeff
        if acc:
            q_hat[w] = acc / size
    plus = dense(pair, 0) + dense(pair, 1)
    minus = dense(pair, 0) - dense(pair, 1)
    out = np.zeros(witness_shape(n, pair))
    for w, coeff in q_hat.items():
        factors = [minus if (w >> (i - 1)) & 1 else plus for i in range(1, n + 1)]
        out += float(coeff) * reduce(np.kron, factors)
    return out


class TestWitnessMatrixAssembly:
    def test_two_term_hand_example(self):
        pair = ip_pair(1)  # the 1x2 block [[0, 1]]: mu0 and mu1 are single cells
        q = {0: Fraction(1, 2), 1: Fraction(-1, 2)}
        mat = require_materialized(q, 1, pair)
        assert np.abs(mat).sum() == 1
        want = np.array([[0.5, -0.5]])  # q(0) * mu0 + q(1) * mu1
        assert np.allclose(mat, want)

    def test_l1_bookkeeping(self):
        pair = ip_pair(2)
        f = parity_function(2)
        w = dual_witness(f, THIRD)
        assert mainlemma_certify(f, pair).h_l1 == w.l1()
        mat = require_materialized(w.q, w.n, pair)
        assert np.abs(mat).sum() == pytest.approx(float(w.l1()), abs=1e-9)

    def test_materialization_guard(self, monkeypatch):
        monkeypatch.setattr(boolcube, "MAX_MATERIALIZE", 8)
        pair = ip_pair(2)  # sides 3 and 4, squared exceeds 8
        w = dual_witness(parity_function(2), THIRD)
        assert max(witness_shape(w.n, pair)) > boolcube.MAX_MATERIALIZE
        with pytest.raises(SizeGuardExceeded):
            require_materialized(w.q, w.n, pair)

    @pytest.mark.parametrize("f", OUTERS)
    @pytest.mark.parametrize("pair_g", PAIRS, ids=("ip2", "disj3"))
    def test_fourier_assembly_agrees(self, f, pair_g):
        pair, _g = pair_g
        w = dual_witness(f, THIRD)
        direct = require_materialized(w.q, w.n, pair)
        alt = fourier_materialize(w.q, w.n, pair)
        assert np.abs(direct - alt).max() <= 1e-10


class TestInnerProduct:
    @pytest.mark.parametrize("f", OUTERS)
    @pytest.mark.parametrize("pair_g", PAIRS, ids=("ip2", "disj3"))
    def test_unit_correlation(self, f, pair_g):
        pair, _g = pair_g
        assert dual_witness(f, THIRD).dot(f) == 1
        assert mainlemma_certify(f, pair).inner_product == 1

    def test_negation_flips_sign(self):
        from oracles import negate

        pair, _ = PAIRS[0]
        f = parity_function(2)
        assert dual_witness(f, THIRD).dot(negate(f)) == -1

    def test_scaled_witness_scales(self):
        f = parity_function(2)
        w = dual_witness(f, THIRD)
        doubled = dataclasses.replace(w, q={z: 2 * v for z, v in w.q.items()})
        assert doubled.dot(f) == 2

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            dual_witness(parity_function(2), THIRD).dot(parity_function(3))

    def test_invalid_pair_rejected(self):
        # a rectangle on which g is never 1 (ip's zero row) gives no pair
        # to trace against
        with pytest.raises(ValueError, match="no 1-inputs"):
            uniform_pair(ip_inner(2), rows=(0,))

    @pytest.mark.parametrize("f", OUTERS)
    @pytest.mark.parametrize("pair_g", PAIRS, ids=("ip2", "disj3"))
    def test_literal_trace_oracle(self, f, pair_g):
        """Entrywise sum h .* F over the restricted rectangle power equals
        the collapsed block-factorized value."""
        pair, g = pair_g
        w = dual_witness(f, THIRD)
        mat = require_materialized(w.q, w.n, pair)
        values, defined = restricted_composition(f, g, pair)
        assert defined.all() or not (np.abs(mat) * ~defined).any()
        literal = float(np.where(defined, mat * values, 0.0).sum())
        collapsed = w.dot(f)
        assert literal == pytest.approx(float(collapsed), abs=1e-9)


class TestRestrictedComposition:
    def test_kron_ordering_matches_witness(self):
        # block 1 must be the most significant factor on both sides
        pair, g = PAIRS[0]
        f = and_function(2)
        values, defined = restricted_composition(f, g, pair)
        assert defined.all()
        labels, cells = block_pair(pair), value_matrix(g).tolist()
        for r, xs in enumerate(itertools.product(labels.i_a, repeat=2)):
            for c, ys in enumerate(itertools.product(labels.i_b, repeat=2)):
                z = (cells[xs[0]][ys[0]] << 0) | (cells[xs[1]][ys[1]] << 1)
                assert values[r, c] == f.table[z]

    def test_undefined_cells_propagate(self):
        g = restrict_rows(ip_inner(2), (1, 2))
        pair = ip_pair(2)  # row label 3 is outside g's domain
        values, defined = restricted_composition(or_function(2), g, pair)
        assert defined.any() and not defined.all()
        for r, xs in enumerate(itertools.product(block_pair(pair).i_a, repeat=2)):
            assert defined[r].all() == (3 not in xs)
            assert defined[r].any() == (3 not in xs)
        assert values[~defined].sum() == 0

    def test_guard(self, monkeypatch):
        monkeypatch.setattr(boolcube, "MAX_MATERIALIZE", 8)
        with pytest.raises(SizeGuardExceeded):
            restricted_composition(parity_function(2), ip_inner(2), ip_pair(2))


class TestOpnormBound:
    def test_single_block_formula(self):
        pair, _ = PAIRS[0]
        w = dual_witness(parity_function(1), THIRD)
        cert = spectral_certificate(pair)
        scale = math.sqrt(pair.k_a * pair.k_b)
        want = (1 + cert.rho) * cert.rho / (float(THIRD) * scale)
        assert opnorm_bound(w, cert.rho, scale) == pytest.approx(want, rel=1e-12)

    def test_rho_at_least_one_rejected(self):
        cert = spectral_certificate(ip_pair(1))
        assert cert.rho_sq == 1 and cert.rho >= 1
        w = dual_witness(parity_function(2), THIRD)
        with pytest.raises(ValueError, match="must be < 1"):
            opnorm_bound(w, cert.rho, 1.0)

    # f3 x disj9 (OR_4, 84^4 rows per side) is far past the guard: bound only
    @pytest.mark.parametrize("f", OUTERS + [or_function(4), or_function(2)])
    @pytest.mark.parametrize("pair_g", PAIRS + [(ip_pair(3), ip_inner(3)),
                                                (disj_pair(6), disj_le1_inner(6)),
                                                (disj_pair(9), disj_le1_inner(9))],
                             ids=("ip2", "disj3", "ip3", "disj6", "disj9"))
    def test_exact_norm_within_bound(self, f, pair_g):
        pair, _ = pair_g
        w = dual_witness(f, THIRD)
        exact = math.sqrt(exact_opnorm_sq(w, pair))
        if max(witness_shape(w.n, pair)) <= 1024:
            dense = np.linalg.norm(require_materialized(w.q, w.n, pair), 2)
            assert exact == pytest.approx(dense, rel=1e-12)
        scale = math.sqrt(pair.k_a * pair.k_b) ** w.n
        assert exact <= opnorm_bound(w, spectral_certificate(pair).rho, scale)

    def test_disjointness_norm_is_rational(self):
        w = dual_witness(or_function(3), THIRD)
        norm_sq = exact_opnorm_sq(w, disj_pair(6))
        assert isinstance(norm_sq, Fraction)
        root = Fraction(math.isqrt(norm_sq.numerator), math.isqrt(norm_sq.denominator))
        assert root * root == norm_sq

    def test_final_form_weaker_when_valid(self):
        pair = ip_pair(5)
        w = dual_witness(parity_function(2), THIRD)
        rho = spectral_certificate(pair).rho
        scale = math.sqrt(pair.k_a * pair.k_b) ** w.n
        bound = opnorm_bound(w, rho, scale)
        if rho <= w.degree / (2.0 * math.e * w.n):
            # the paper's closed weakening of the binomial tail
            final = 2.0 / (float(w.epsilon) * scale) * math.exp(-0.5 * w.degree)
            assert bound <= final + 1e-12


class TestIntegerContraction:
    """exact_opnorm_sq contracts integers over common denominators, and a
    Gram pair keeps only its dominant eigen row; it must equal the Fraction
    contraction over the full spectrum rebuilt from family and k exactly,
    on Gram (ip) and commuting (disj) pairs alike."""

    @pytest.mark.parametrize("epsilon", [THIRD, Fraction(1, 5)], ids=("1/3", "1/5"))
    def test_matches_fraction_route(self, epsilon):
        pairs = [ip_pair(k) for k in range(1, 10)] + [disj_pair(k) for k in (3, 6, 9, 12)]
        for f in SWEEP_FUNCTIONS:
            try:
                w = dual_witness(f, epsilon)
            except WitnessNotApplicable:
                continue
            for pair in pairs:
                norm_sq = exact_opnorm_sq(w, pair)
                assert type(norm_sq) is Fraction
                assert norm_sq == fraction_opnorm_sq(w.q, w.n, pair), (f.table, pair)

    def test_majority_7_ip9(self):
        w = dual_witness(from_profile([0, 0, 0, 0, 1, 1, 1, 1]), THIRD)
        pair = ip_pair(9)
        assert exact_opnorm_sq(w, pair) == fraction_opnorm_sq(w.q, w.n, pair)


class TestTraceNormCertificate:
    def test_exact_composition_as_approximation(self):
        pair, g = PAIRS[0]
        f = parity_function(2)
        w = dual_witness(f, THIRD)
        values, _present = restricted_composition(f, g, pair)
        lb = trace_norm_certificate(w, pair, f, g, THIRD, Fraction(0), f_tilde=values)
        want = 1.0 / operator_norm(require_materialized(w.q, w.n, pair))
        assert lb == pytest.approx(want, rel=1e-9)

    def test_sampled_approximations_dominate_bound(self):
        pair, g = PAIRS[0]
        f = parity_function(2)
        w = dual_witness(f, THIRD)
        values, defined = restricted_composition(f, g, pair)
        rng = np.random.default_rng(0)
        implicit = trace_norm_certificate(w, pair, f, g, THIRD, SIXTH)
        for _ in range(25):
            noise = rng.uniform(-float(SIXTH), float(SIXTH), size=values.shape)
            f_tilde = np.where(defined, values + noise, 0.0)
            lb = trace_norm_certificate(w, pair, f, g, THIRD, SIXTH, f_tilde=f_tilde)
            # the explicit numerator is at least the guaranteed 1 - eps'/eps
            assert lb >= implicit - 1e-12

    def test_violating_approximation_rejected(self):
        pair, g = PAIRS[0]
        f = parity_function(2)
        w = dual_witness(f, THIRD)
        values, defined = restricted_composition(f, g, pair)
        bad = np.where(defined, values + 0.4, 0.0)
        with pytest.raises(ValueError, match="entrywise"):
            trace_norm_certificate(w, pair, f, g, THIRD, SIXTH, f_tilde=bad)

    def test_epsilon_ordering_enforced(self):
        pair, g = PAIRS[0]
        f = parity_function(2)
        w = dual_witness(f, THIRD)
        with pytest.raises(ValueError):
            trace_norm_certificate(w, pair, f, g, THIRD, THIRD)

    @pytest.mark.parametrize("eps_prime", [Fraction(-10), Fraction(-1, 100), "1/0"])
    def test_epsilon_prime_range_enforced(self, eps_prime):
        # a negative eps' would lift the guaranteed numerator 1 - eps'/eps above 1
        pair, g = PAIRS[0]
        f = parity_function(2)
        w = dual_witness(f, THIRD)
        with pytest.raises(ValueError, match="epsilon_prime"):
            trace_norm_certificate(w, pair, f, g, THIRD, eps_prime)
        assert trace_norm_certificate(w, pair, f, g, THIRD, Fraction(0)) \
            == pytest.approx(1.0 / math.sqrt(exact_opnorm_sq(w, pair)), rel=1e-15)

    def test_norm_route_past_the_guard(self, monkeypatch):
        monkeypatch.setattr(boolcube, "MAX_MATERIALIZE", 8)
        pair, g = PAIRS[0]
        f = parity_function(2)
        w = dual_witness(f, THIRD)
        exact = trace_norm_certificate(w, pair, f, g, THIRD, SIXTH)
        assert exact > 0


class TestCertifyChain:
    def test_constant_outer_rejected(self):
        pair, _ = PAIRS[0]
        with pytest.raises(WitnessNotApplicable):
            mainlemma_certify(constant_function(2, 1), pair)

    def test_report_consistency(self):
        pair, _ = PAIRS[0]
        report = mainlemma_certify(parity_function(2), pair)
        assert report.inner_product == 1
        assert report.norm_source == "exact_spectrum"
        assert report.h_opnorm_exact is not None
        assert report.h_opnorm_exact <= report.h_opnorm_bound
        route = (1 - float(report.epsilon_prime) / float(report.epsilon)) \
            / report.h_opnorm_exact
        assert report.tracenorm_lb == route
        assert report.qcc_bits == pytest.approx(
            math.log2(report.tracenorm_lb / report.scale))
        assert report.qcc_constant_note == "no hidden constant applied"

    def test_exact_route_is_the_only_bound(self):
        # the paper's closed form scale * e^(d/2) / 24 ignores eps' and
        # overstates the certified bound on this cell, so the report carries
        # no closed form: tracenorm_lb is the exact route
        report = mainlemma_certify(or_function(2), ip_pair(7),
                                   epsilon_prime=Fraction(33, 100))
        assert not [name for name in dataclasses.asdict(report)
                    if name.startswith("closed_form")]
        route = (1 - 33 / 100 / (1 / 3)) / report.h_opnorm_exact
        assert report.tracenorm_lb == route
        assert report.qcc_bits == math.log2(route / report.scale)

    def test_epsilon_ordering(self):
        pair, _ = PAIRS[0]
        with pytest.raises(ValueError):
            mainlemma_certify(parity_function(2), pair,
                              epsilon=THIRD, epsilon_prime=THIRD)

    @pytest.mark.parametrize("eps_prime", [Fraction(-10), Fraction(-1, 100), "1/0"])
    def test_epsilon_prime_range(self, eps_prime):
        pair, _ = PAIRS[0]
        with pytest.raises(ValueError, match="epsilon_prime"):
            mainlemma_certify(parity_function(2), pair,
                              epsilon=THIRD, epsilon_prime=eps_prime)
        report = mainlemma_certify(parity_function(2), pair,
                                   epsilon=THIRD, epsilon_prime=Fraction(0))
        assert report.epsilon_prime == 0

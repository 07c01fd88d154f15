import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcomp import approxdeg
from blockcomp.approxdeg import (DualWitness, approx_degree, degree_of, dual_witness,
                                 monomials_up_to, verify_witness, weight_degree)
from blockcomp.boolcube import (BooleanFunction, from_profile, spectrum_of_values,
                                symmetric_profile, walsh_transform)
from blockcomp.errors import EpsilonOutOfRange, NotSymmetric, WitnessNotApplicable
from blockcomp.simplex import solve_feasibility
from oracles import (SWEEP_FUNCTIONS, all_functions, and_function, constant_function,
                     dual_system_witness, farkas_only, lp_feasible, or_function,
                     parity_function, paturi_check, primal_sweep_result, projection,
                     seeded_table, table_solves, weight_primal_sweep, weight_solves)

THIRD = Fraction(1, 3)


class TestSimplex:
    def test_feasible_equality(self):
        # x1 + x2 = 2, x1 - x2 <= 0
        x = solve_feasibility(
            2,
            eq_rows=[([Fraction(1), Fraction(1)], Fraction(2))],
            ub_rows=[([Fraction(1), Fraction(-1)], Fraction(0))],
        ).x
        assert x is not None
        assert x[0] + x[1] == 2 and x[0] <= x[1]

    def test_infeasible(self):
        # x1 <= 1 and x1 = 3
        x, certificate = solve_feasibility(
            1,
            eq_rows=[([Fraction(1)], Fraction(3))],
            ub_rows=[([Fraction(1)], Fraction(1))],
        )
        assert x is None
        assert certificate is not None and min(certificate) >= 0

    def test_negative_rhs_normalization(self):
        # -x1 <= -2 means x1 >= 2
        x = solve_feasibility(1, ub_rows=[([Fraction(-1)], Fraction(-2))]).x
        assert x is not None and x[0] >= 2

    def test_trivial_empty(self):
        assert solve_feasibility(3) == ([0, 0, 0], None)


class TestLpFeasible:
    def test_constant_degree_zero(self):
        coeffs = lp_feasible(constant_function(2, 1), THIRD, 0)
        assert coeffs is not None
        assert abs(coeffs.get(0, Fraction(0)) - 1) <= THIRD

    def test_projection_degree_zero_infeasible(self):
        assert lp_feasible(projection(2, 1), THIRD, 0) is None

    def test_parity_low_degree_infeasible(self):
        assert lp_feasible(parity_function(4), THIRD, 3) is None

    def test_epsilon_validation(self):
        with pytest.raises(EpsilonOutOfRange):
            lp_feasible(or_function(2), Fraction(1, 2), 1)
        with pytest.raises(EpsilonOutOfRange):
            lp_feasible(or_function(2), Fraction(0), 1)
        with pytest.raises(EpsilonOutOfRange, match="zero denominator"):
            lp_feasible(or_function(2), "1/0", 1)

    def test_degree_cap_validation(self):
        with pytest.raises(ValueError):
            lp_feasible(or_function(2), THIRD, 3)

    def test_coefficients_satisfy_bound_exactly(self):
        f = or_function(3)
        res = approx_degree(f, THIRD)
        for x in range(8):
            val = sum(
                (c if (w & x).bit_count() % 2 == 0 else -c
                 for w, c in res.coefficients.items()),
                Fraction(0),
            )
            assert abs(val - f.table[x]) <= THIRD


class TestApproxDegree:
    def test_constants(self):
        assert approx_degree(constant_function(3, 0), THIRD).degree == 0
        assert approx_degree(constant_function(3, 1), THIRD).degree == 0

    def test_projection(self):
        assert approx_degree(projection(3, 2), THIRD).degree == 1

    def test_parity_full_degree(self):
        for n in range(1, 6):
            assert approx_degree(parity_function(n), THIRD).degree == n

    def test_or4_against_sweep_oracle(self):
        """Cross-check the reported minimum against a direct feasibility sweep."""
        f = or_function(4)
        res = approx_degree(f, THIRD)
        statuses = [lp_feasible(f, THIRD, d) is not None for d in range(5)]
        assert statuses == [d >= res.degree for d in range(5)]

    def test_monotone_in_epsilon(self):
        f = or_function(4)
        grid = [Fraction(1, 6), Fraction(1, 4), THIRD, Fraction(2, 5)]
        degrees = [approx_degree(f, e).degree for e in grid]
        assert degrees == sorted(degrees, reverse=True)

    def test_minimality(self):
        f = and_function(3)
        res = approx_degree(f, THIRD)
        assert all(w.bit_count() <= res.degree for w in res.coefficients)
        if res.degree > 0:
            assert lp_feasible(f, THIRD, res.degree - 1) is None


class TestFarkasDichotomy:
    @given(st.integers(0, 15), st.integers(0, 2))
    @settings(max_examples=48, deadline=None)
    def test_exactly_one_side_wins(self, table_bits, degree_cap):
        """At every degree level either the primal approximation exists or
        the alternative system produces a certificate, never both; without
        a certificate the infeasible solve yields an approximation itself."""
        f = BooleanFunction(2, tuple((table_bits >> i) & 1 for i in range(4)))
        primal = lp_feasible(f, THIRD, degree_cap)
        alt, poly = dual_system_witness(f, THIRD, degree_cap)
        assert (primal is None) != (alt is None)
        assert (alt is None) != (poly is None)
        if poly is not None:
            assert all(abs(p - v) <= THIRD for p, v in zip(poly, f.table))
            assert all(w.bit_count() <= degree_cap
                       for w, c in enumerate(walsh_transform(poly)) if c)
        if alt is not None:
            l1 = sum(abs(v) for v in alt.values())
            dot = sum(v for x, v in alt.items() if f.table[x])
            assert dot >= 1 + THIRD * l1
            sp = spectrum_of_values(2, alt)
            for w in monomials_up_to(2, degree_cap):
                assert w not in sp.coeffs


class TestDualWitness:
    def test_single_variable(self):
        w = dual_witness(projection(1, 1), THIRD)
        assert w.degree == 1
        assert w.q == {0: Fraction(-1), 1: Fraction(1)}

    def test_or3_properties(self):
        # a + (x1+x2+x3)/3 with a = 1/3 is a 1/3-approximation, so the
        # witness certifies exactly degree 1
        f = or_function(3)
        w = dual_witness(f, THIRD)
        r = w.report
        assert w.degree == approx_degree(f, THIRD).degree == 1
        assert r.all_pass
        assert r.q_dot_f == 1
        assert r.l1 < 3
        assert r.max_abs_coeff <= Fraction(3, 8)
        assert r.min_support_degree >= 1

    def test_or4_properties(self):
        f = or_function(4)
        w = dual_witness(f, THIRD)
        r = w.report
        assert w.degree == 2
        assert r.all_pass
        assert r.l1 < 3
        assert r.max_abs_coeff <= Fraction(3, 16)
        assert r.min_support_degree >= 2

    def test_constant_raises(self):
        with pytest.raises(WitnessNotApplicable):
            dual_witness(constant_function(2, 0), THIRD)
        with pytest.raises(WitnessNotApplicable):
            dual_witness(constant_function(2, 1), THIRD)

    def test_scaled_witness_fails_normalization(self):
        f = parity_function(2)
        w = dual_witness(f, THIRD)
        doubled = {x: 2 * v for x, v in w.q.items()}
        bad = DualWitness(w.n, w.epsilon, w.degree, doubled,
                          spectrum_of_values(w.n, doubled), w.report)
        r = verify_witness(bad, f)
        assert not r.check_a
        assert r.q_dot_f == 2

    def test_perturbed_witness_fails_support(self):
        f = parity_function(2)
        w = dual_witness(f, THIRD)
        shifted = dict(w.q)
        shifted[0] = shifted.get(0, Fraction(0)) + Fraction(1, 100)
        bad = DualWitness(w.n, w.epsilon, w.degree, shifted,
                          spectrum_of_values(w.n, shifted), w.report)
        r = verify_witness(bad, f)
        assert not r.check_d

    def test_arity_mismatch(self):
        w = dual_witness(parity_function(2), THIRD)
        with pytest.raises(ValueError):
            verify_witness(w, parity_function(3))

    @given(st.integers(2, 3), st.integers(0, 255))
    @settings(max_examples=30, deadline=None)
    def test_random_small_functions(self, n, bits):
        table = tuple((bits >> i) & 1 for i in range(1 << n))
        f = BooleanFunction(n, table)
        try:
            w = dual_witness(f, THIRD)
        except WitnessNotApplicable:
            assert lp_feasible(f, THIRD, 0) is not None
            return
        assert w.report.all_pass
        assert w.dot(f) == 1


class TestFarkasSweep:
    """dual_witness reads the degree off the alternative system alone; it
    must agree with the primal sweep and never solve the primal.  A table
    that is not symmetric normalizes the table system's solution at d - 1;
    a symmetric f expands the solution on its weights, so its q is constant
    on each weight class."""

    @pytest.mark.parametrize("epsilon", [THIRD, Fraction(1, 5)], ids=("1/3", "1/5"))
    def test_matches_primal_sweep(self, epsilon):
        for f in SWEEP_FUNCTIONS:
            degree = primal_sweep_result(f, epsilon).degree
            if degree == 0:
                with pytest.raises(WitnessNotApplicable):
                    dual_witness(f, epsilon)
                continue
            w = dual_witness(f, epsilon)
            assert w.degree == degree, f.table
            try:
                symmetric_profile(f)
            except NotSymmetric:
                pass
            else:
                assert constant_on_weight_classes(f.n, w.q), f.table
                continue
            raw, _ = dual_system_witness(f, epsilon, degree - 1)
            scale = sum(v for x, v in raw.items() if f.table[x])
            assert w.q == {x: v / scale for x, v in raw.items()}, f.table

    def test_no_primal_solve(self, monkeypatch):
        farkas_only(monkeypatch)
        for f in (or_function(4), from_profile([0, 0, 0, 1, 1, 1]),
                  parity_function(3), seeded_table(5, 0)):
            assert dual_witness(f, THIRD).report.all_pass
        for n in (1, 2, 3, 4):
            for value in (0, 1):
                with pytest.raises(WitnessNotApplicable):
                    dual_witness(constant_function(n, value), THIRD)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_parity_skips_full_degree_solve(self, monkeypatch, n):
        # parity is symmetric: the sweep on its n+1 weights has a solution at
        # every D < n, so d = n, and it never solves D = n or a table system
        solves = farkas_only(monkeypatch)
        w = dual_witness(parity_function(n), THIRD)
        assert w.degree == n
        assert solves == weight_solves(n, n)

    @pytest.mark.parametrize("n", [3, 4])
    def test_non_symmetric_full_degree_sweeps(self, monkeypatch, n):
        # a table that is not symmetric keeps the sweep D = 0..n-1 and skips
        # D = n; padding (1,0,0,1,0,1,0,0) with a dummy top bit keeps d = 3
        table = (1, 0, 0, 1, 0, 1, 0, 0) * (1 << (n - 3))
        solves = farkas_only(monkeypatch)
        w = dual_witness(BooleanFunction(n, table), THIRD)
        assert w.degree == 3
        assert solves == table_solves(n, 3)


def constant_on_weight_classes(n, q):
    """Whether q takes one value on each weight class of the cube."""
    return len({(x.bit_count(), q.get(x, 0)) for x in range(1 << n)}) == n + 1


def table_sweep_degree(f, epsilon):
    """The degree by sweeping the table Farkas system over D = 0..n-1."""
    for degree in range(f.n):
        if dual_system_witness(f, epsilon, degree)[0] is None:
            return degree
    return f.n


def profiles(n):
    """Every weight profile of arity n, as tuples."""
    return [tuple((bits >> m) & 1 for m in range(n + 1)) for bits in range(1 << (n + 1))]


class TestWeightDegree:
    """The (n+1)-point weight LP gives the table degree of a symmetric f."""

    @pytest.mark.parametrize("epsilon", [THIRD, Fraction(1, 5)], ids=("1/3", "1/5"))
    def test_matches_table_sweep_on_profiles(self, epsilon):
        for n in range(1, 6):
            for values in profiles(n):
                degree = weight_degree(values, epsilon)
                if len(set(values)) == 1:
                    assert degree == 0
                    continue
                assert degree == table_sweep_degree(from_profile(values), epsilon), values

    @pytest.mark.parametrize("values", [
        [0] + [1] * 6, [0, 0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1, 1], [0, 1] * 3 + [0],
    ], ids=("OR_6", "MAJ_6", "THR3_6", "PAR_6"))
    def test_matches_table_sweep_at_six_bits(self, values):
        assert weight_degree(values, THIRD) == \
            table_sweep_degree(from_profile(values), THIRD)

    def test_epsilon_validation(self):
        with pytest.raises(EpsilonOutOfRange):
            weight_degree([0, 1], Fraction(1, 2))


SYMMETRIC = [or_function(4), from_profile([0, 0, 0, 1, 1, 1]), parity_function(3),
             and_function(3), from_profile([0, 0, 1, 1, 1, 1, 1])]


PRIMAL_REFERENCE = ([f for n in (1, 2, 3) for f in all_functions(n)]
                    + [seeded_table(4, seed) for seed in range(4)] + [seeded_table(5, 0)])


class TestPrimalSweepReference:
    """approx_degree takes d from the Farkas sweep, on the weights for a
    symmetric f and on the table for any other, and its coefficients from
    the certificate of the sweep's infeasible solve at d.  It solves exactly
    the sweep's systems (d + 1 below d = n, n at d = n) and no primal, its
    degree is the primal sweep's first feasible D, and its coefficients
    re-sum to within eps of f at every input."""

    def test_matches_primal_sweep(self, monkeypatch):
        solves = farkas_only(monkeypatch)
        for f in PRIMAL_REFERENCE:
            solves.clear()
            got = approx_degree(f, THIRD)
            assert len(solves) == min(got.degree + 1, f.n), f.table
            assert got.degree == primal_sweep_result(f, THIRD).degree, f.table
            assert sorted(got.coefficients) == monomials_up_to(f.n, got.degree)
            for x, value in enumerate(realized(f.n, got.coefficients)):
                assert abs(value - f.table[x]) <= THIRD, (f.table, x)


def realized(n, coefficients):
    """sum_w alpha_w chi_w(x) at every x, by direct summation over one
    common denominator."""
    den = math.lcm(*(c.denominator for c in coefficients.values()))
    ints = [(w, int(c * den)) for w, c in coefficients.items()]
    return [Fraction(sum(-a if (w & x).bit_count() & 1 else a for w, a in ints), den)
            for x in range(1 << n)]


class TestSymmetricApproximation:
    """approx_degree on a symmetric f reads P on the weights off the
    certificate of the weight sweep's infeasible solve at d (P = f at
    d = n) and expands x -> P(|x|) into the characters: an exact degree-d
    eps-approximation of the table whose values and coefficients depend
    only on the weight."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_profile_realizes_exactly(self, n):
        for values in profiles(n):
            if len(set(values)) == 1:
                continue
            f = from_profile(values)
            result = approx_degree(f, THIRD)
            assert sorted(result.coefficients) == monomials_up_to(n, result.degree)
            by_weight = {}
            for w, c in result.coefficients.items():
                assert by_weight.setdefault(w.bit_count(), c) == c, (values, w)
            poly = {}
            for x, value in enumerate(realized(n, result.coefficients)):
                assert poly.setdefault(x.bit_count(), value) == value, (values, x)
                assert abs(value - f.table[x]) <= THIRD, (values, x)
            assert result.degree == len(weight_primal_sweep(values, THIRD)) - 1
            # the table sweep takes about 0.25 s a profile at n = 6; four of
            # them are checked in TestWeightDegree
            if n <= 5:
                assert result.degree == table_sweep_degree(f, THIRD), values

    @pytest.mark.parametrize("f", SYMMETRIC + [constant_function(3, 1), parity_function(5)],
                             ids=("OR_4", "MAJ_5", "PAR_3", "AND_3", "THR2_6", "ONE_3",
                                  "PAR_5"))
    def test_solves_no_table_system(self, monkeypatch, f):
        degree = len(weight_primal_sweep(symmetric_profile(f).values, THIRD)) - 1
        solves = farkas_only(monkeypatch)
        assert approx_degree(f, THIRD).degree == degree
        assert solves == weight_solves(f.n, degree)

    def test_profiles_at_the_arity_cap_stay_on_the_weights(self, monkeypatch):
        n = approxdeg.LP_ARITY_CAP
        solves = farkas_only(monkeypatch)
        for values in profiles(n):
            approx_degree(from_profile(values), THIRD)
        assert max(max(solve) for solve in solves) == 2 * (n + 1)

    def test_full_degree_interpolates(self, monkeypatch):
        # parity has degree n at eps = 1/3: the sweep has a solution at every
        # D < n, so no solve is infeasible, and the polynomial is the profile
        # itself, the one the weight primal sweep ends on at D = n
        values = (0, 1, 0, 1, 0)
        assert weight_primal_sweep(values, THIRD) == [0, 1, -2, 4, -8]
        solves = farkas_only(monkeypatch)
        result = approx_degree(from_profile(values), THIRD)
        assert solves == weight_solves(4, 4)
        assert realized(4, result.coefficients) == [values[x.bit_count()] for x in range(16)]


class TestSymmetricRoute:
    """A symmetric f solves no table system: approx_degree, degree_of and
    dual_witness sweep the Farkas system on its n+1 weights alone.  Any
    other table sweeps the table Farkas system, and approx_degree solves
    nothing more.  No route solves a primal."""

    @pytest.mark.parametrize("f", SYMMETRIC, ids=("OR_4", "MAJ_5", "PAR_3", "AND_3",
                                                  "THR2_6"))
    def test_no_table_solve(self, monkeypatch, f):
        degree = len(weight_primal_sweep(symmetric_profile(f).values, THIRD)) - 1
        solves = farkas_only(monkeypatch)
        for operation in (dual_witness, approx_degree):
            assert operation(f, THIRD).degree == degree
            assert solves == weight_solves(f.n, degree)
            solves.clear()
        assert degree_of(f, THIRD) == degree
        assert solves == weight_solves(f.n, degree)

    def test_constant_solves_no_table_system(self, monkeypatch):
        solves = farkas_only(monkeypatch)
        f = constant_function(3, 1)
        assert degree_of(f, THIRD) == 0
        assert approx_degree(f, THIRD).degree == 0
        assert solves == weight_solves(3, 0) * 2

    @pytest.mark.parametrize("n,seed", [(4, 0), (4, 1), (5, 0)])
    def test_seeded_table_keeps_sweeps(self, monkeypatch, n, seed):
        f = seeded_table(n, seed)
        with pytest.raises(NotSymmetric):
            symmetric_profile(f)
        degree = table_sweep_degree(f, THIRD)
        solves = farkas_only(monkeypatch)
        for operation in (approx_degree, dual_witness):
            assert operation(f, THIRD).degree == degree
            assert solves == table_solves(n, degree)
            solves.clear()
        assert degree_of(f, THIRD) == degree
        assert solves == table_solves(n, degree)

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_contradiction_raises(self, monkeypatch, shift):
        # a certificate off by one at every weight, either way, gives a
        # polynomial that misses f at every weight: the exact self-check
        # refuses it
        def shifted(*args, **kwargs):
            x, certificate = solve_feasibility(*args, **kwargs)
            return x, certificate and [r + shift for r in certificate]

        monkeypatch.setattr(approxdeg, "solve_feasibility", shifted)
        with pytest.raises(RuntimeError, match="degree-2 polynomial read off the Farkas "
                                               "certificate is"):
            approx_degree(or_function(4), THIRD)

    def test_high_character_raises(self, monkeypatch):
        # a table off P(|x|) at x = 0 alone has every character in its
        # expansion: the exact self-check refuses it
        real = approxdeg.walsh_transform
        monkeypatch.setattr(approxdeg, "walsh_transform",
                            lambda values: real([values[0] + 1] + list(values[1:])))
        with pytest.raises(RuntimeError, match="expands onto character"):
            approx_degree(or_function(4), THIRD)

    def test_arity_cap_before_any_solve(self):
        f = constant_function(approxdeg.LP_ARITY_CAP + 1, 0)
        for operation in (approx_degree, dual_witness, degree_of):
            with pytest.raises(ValueError, match="LP operations support"):
                operation(f, THIRD)


WITNESS_PROFILES = ([(n, THIRD) for n in range(1, 8)]
                    + [(n, Fraction(1, 5)) for n in range(1, 6)])


class TestWeightWitness:
    """dual_witness on a symmetric f expands the sweep's weight masses psi
    into q(x) = psi_|x| / C(n, |x|): on every profile q is constant on each
    weight class and passes the exact verify_witness, and its degree is the
    weight primal sweep's and, for n <= 5, the table Farkas sweep's."""

    @pytest.mark.parametrize("n,epsilon", WITNESS_PROFILES,
                             ids=[f"{n}-{e}" for n, e in WITNESS_PROFILES])
    def test_every_profile(self, n, epsilon):
        for values in profiles(n):
            f = from_profile(values)
            degree = len(weight_primal_sweep(values, epsilon)) - 1
            if degree == 0:
                with pytest.raises(WitnessNotApplicable):
                    dual_witness(f, epsilon)
                continue
            w = dual_witness(f, epsilon)
            assert w.degree == degree, values
            assert constant_on_weight_classes(n, w.q), values
            assert verify_witness(w, f).all_pass, values
            if n <= 5:
                assert degree == table_sweep_degree(f, epsilon), values


class TestPaturi:
    def test_and2(self):
        # profile flips once near the top: ell0+ell1 = 1
        ratio = paturi_check(and_function(2), THIRD)
        deg = approx_degree(and_function(2), THIRD).degree
        assert ratio == pytest.approx(deg / 2**0.5)

    def test_or4(self):
        ratio = paturi_check(or_function(4), THIRD)
        deg = approx_degree(or_function(4), THIRD).degree
        assert ratio == pytest.approx(deg / 2.0)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            paturi_check(constant_function(3, 0), THIRD)

    def test_non_symmetric_rejected(self):
        from blockcomp.errors import NotSymmetric

        with pytest.raises(NotSymmetric):
            paturi_check(projection(2, 1), THIRD)

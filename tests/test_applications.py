import dataclasses
import itertools
import math

import pytest

from blockcomp.applications import padding_identity_check, reduction_plan
from blockcomp.approxdeg import LP_ARITY_CAP
from blockcomp.boolcube import (from_profile, profile_from_values, symmetric_profile,
                                weight_subsets)
from blockcomp.errors import DegeneratePlan, NotSymmetric, WitnessNotApplicable
from blockcomp.mainlemma import mainlemma_certify
from blockcomp.specdisc import (disj_pair, family_bound, ip_pair,
                                spectral_certificate)
from oracles import (constant_function, enumerated_identity_check, or_function,
                     pad_restrict, parity_function, projection)


def profile_fn(*values):
    return from_profile(list(values))


def table_identity_check(plan, f):
    """The identity on truth tables: the restricted source pad_restrict(f)
    at z against f at x AND y, over every point of the restricted domain.
    The reference for padding_identity_check, which reads both by weight."""
    k, blocks = plan.k, plan.source_arity
    subsets = weight_subsets(k, k // 3)
    dom_pairs = [(a, b) for a in subsets for b in subsets
                 if (a & b).bit_count() <= 1]
    source = pad_restrict(f, plan.ones_pad, plan.zeros_pad)
    pad_bits = ((1 << plan.composed_ones_pad) - 1) << (blocks * k)
    for combo in itertools.product(dom_pairs, repeat=blocks):
        z = 0
        x = pad_bits
        y = pad_bits
        for i, (a, b) in enumerate(combo):
            if (a & b).bit_count() == 1:
                z |= 1 << i
            x |= a << (i * k)
            y |= b << (i * k)
        if source.table[z] != f.table[x & y]:
            return False
    return True


LARGE_L0_TOY = profile_fn(0, 0, 1, 1, 1, 1, 1)          # n=6, ell0=2
SMALL_L0_TOY = or_function(8)                           # ell0=1, alpha*8 > 1 at c=12
L1_TOY = profile_fn(*([0] * 8 + [1] * 5))               # n=12, ell1=5


def ip_condition(n, k):
    """The IP corollary's sufficient condition k >= 2*log2(n) + 5, which
    forces rho <= 1/(2en) and hence the closed-form regime."""
    return k >= 2 * math.log2(n) + 5


class TestIpDriver:
    """f composed with inner product, certified by mainlemma_certify on
    ip_pair(k); family_bound checks rho against 1/sqrt(K-1)."""

    def test_small_n_all_conditions_hold(self):
        f, pair = projection(1, 1), ip_pair(5)
        report = mainlemma_certify(f, pair)
        assert ip_condition(f.n, 5)
        assert report.rho <= 1.0 / (2.0 * math.e * f.n)
        assert family_bound("ip", 5, spectral_certificate(pair))[1]
        assert report.inner_product == 1

    def test_condition_fails_but_certificate_emitted(self):
        f, pair = or_function(4), ip_pair(5)
        report = mainlemma_certify(f, pair)
        assert not ip_condition(f.n, 5)
        assert family_bound("ip", 5, spectral_certificate(pair))[1]
        assert report.inner_product == 1
        assert math.isfinite(report.qcc_bits)

    def test_constant_rejected(self):
        with pytest.raises(WitnessNotApplicable):
            mainlemma_certify(constant_function(2, 1), ip_pair(5))

    def test_condition_arithmetic(self):
        # whenever k >= 2*log2(n) + 5, the closed form 1/sqrt(2^k - 1)
        # already sits below 1/(2en); no pair construction needed
        for n in range(2, 65):
            k = math.ceil(2 * math.log2(n) + 5)
            assert 1.0 / math.sqrt(2.0 ** k - 1) <= 1.0 / (2 * math.e * n)


class TestDisjDriver:
    """f composed with at-most-one-intersection disjointness, certified by
    mainlemma_certify on disj_pair(k); family_bound checks rho <= 3/k."""

    def test_divisibility(self):
        with pytest.raises(ValueError):
            disj_pair(4)

    def test_k3_emits_with_vacuous_condition(self):
        f, pair = parity_function(2), disj_pair(3)
        report = mainlemma_certify(f, pair)
        assert family_bound("disj", 3, spectral_certificate(pair))[1]
        assert not 3 >= 6.0 * math.e * f.n / report.degree
        assert report.inner_product == 1

    def test_k6_rho_bound_holds(self):
        report = mainlemma_certify(parity_function(2), disj_pair(6))
        assert report.rho <= 3.0 / 6 + 1e-9

    def test_condition_arithmetic(self):
        # k >= 6en/d puts the exact rho = 9/(4k) (TestJohnson) below
        # d/(2en), the closed-form regime; past the side cap, so by arithmetic
        for n in range(1, 65):
            for d in range(1, n + 1):
                k = 3 * math.ceil(2.0 * math.e * n / d)
                assert 9.0 / (4 * k) <= d / (2.0 * math.e * n)


class TestReductionPlanSelection:
    def test_constant_rejected(self):
        with pytest.raises(DegeneratePlan):
            reduction_plan(symmetric_profile(constant_function(4, 0)))

    def test_non_symmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            reduction_plan(symmetric_profile(projection(3, 1)))

    def test_c_positive(self):
        with pytest.raises(ValueError):
            reduction_plan(symmetric_profile(or_function(4)), c=0.0)

    def test_c_too_small_for_k(self):
        # 6*sqrt(2)*e/c overflows to inf, whose ceiling has no int value
        with pytest.raises(ValueError, match="too small"):
            reduction_plan(symmetric_profile(L1_TOY), c=1e-320)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_override_below_one(self, k):
        for f in (L1_TOY, LARGE_L0_TOY):
            with pytest.raises(ValueError, match="k_override must be >= 1"):
                reduction_plan(symmetric_profile(f), k_override=k)

    def test_case_selection(self):
        assert reduction_plan(symmetric_profile(L1_TOY), k_override=3).case == "l1"
        # at c=1 alpha*n < 1 for small n, so any flip below the middle
        # routes to large-l0
        assert reduction_plan(symmetric_profile(LARGE_L0_TOY), k_override=3).case == "large-l0"
        assert reduction_plan(symmetric_profile(or_function(8)), c=1.0).case == "large-l0"
        # at c=12 the coefficient grows enough for ell0=1 to count as small
        assert reduction_plan(symmetric_profile(SMALL_L0_TOY), c=12.0).case == "small-l0"

    def test_alpha_beta_monotone_in_c(self):
        p1 = reduction_plan(symmetric_profile(or_function(8)), c=1.0)
        p2 = reduction_plan(symmetric_profile(or_function(8)), c=12.0)
        assert p2.beta > p1.beta and p2.alpha > p1.alpha
        assert p2.beta == pytest.approx(min(2 ** (1 / 3), (1 / math.e) ** (2 / 3)))

    def test_override_flags_and_lp_skip(self):
        plan = reduction_plan(symmetric_profile(L1_TOY), k_override=3)
        assert plan.k_overridden
        assert plan.degree is None and plan.degree_symbolic is not None
        natural = reduction_plan(symmetric_profile(SMALL_L0_TOY), c=12.0)
        assert not natural.k_overridden
        assert natural.degree is not None

    def test_source_past_lp_cap_stays_symbolic(self):
        # c = 24 makes k = 1, so the ell1 case's source has arity 2*ell1 = 10
        plan = reduction_plan(symmetric_profile(L1_TOY), c=24.0)
        assert not plan.k_overridden
        assert plan.source_arity > LP_ARITY_CAP
        assert plan.degree is None
        assert plan.degree_symbolic == f"24.0*sqrt(2)*{plan.n_prime}"


class TestReductionPlanFormulas:
    def test_l1_fields(self):
        plan = reduction_plan(symmetric_profile(L1_TOY), k_override=3)
        assert (plan.n, plan.ell0, plan.ell1) == (12, 0, 5)
        assert plan.n_prime == 5 // 5 == 1
        assert plan.source_arity == 2
        assert plan.ones_pad == 12 - 5 - 1 == 6
        assert plan.zeros_pad == 12 - 2 - 6 == 4
        assert plan.composed_ones_pad == 6
        assert plan.composed_zeros_pad == 12 - 2 * 3 * 1 - 6 == 0
        assert plan.valid

    def test_large_l0_fields(self):
        plan = reduction_plan(symmetric_profile(LARGE_L0_TOY), k_override=3)
        assert (plan.n, plan.ell0, plan.ell1) == (6, 2, 0)
        assert plan.n_prime == min((6 - 2 + 1) // 5, 1) == 1
        assert plan.source_arity == 2
        assert plan.ones_pad == 2 - 1 - 1 == 0
        assert plan.zeros_pad == 6 - 2 - 0 == 4
        assert plan.composed_ones_pad == 0
        assert plan.composed_zeros_pad == 6 - 0 - 2 * 3 * 1 == 0
        assert plan.valid

    def test_small_l0_fields(self):
        plan = reduction_plan(symmetric_profile(SMALL_L0_TOY), c=12.0)
        beta = min(2 ** (1 / 3), (12 / (12 * math.e)) ** (2 / 3))
        assert plan.n_prime == math.floor(beta * 8 ** (2 / 3) * 1)
        assert plan.n_prime == 2
        assert plan.source_arity == 2
        assert plan.ones_pad == 0 and plan.zeros_pad == 6
        assert plan.degree == 1  # OR_2 needs degree 1 at eps = 1/3
        assert plan.k == math.ceil(6 * math.e * 2 / 1)
        assert plan.composed_zeros_pad == 8 - 2 * plan.k
        assert not plan.valid  # composed zeros go negative at natural k

    def test_small_l0_with_toy_k(self):
        plan = reduction_plan(symmetric_profile(SMALL_L0_TOY), c=12.0, k_override=3)
        assert plan.case == "small-l0"
        assert plan.composed_zeros_pad == 8 - 2 * 3 == 2
        assert plan.valid

    def test_natural_k_too_large_for_small_n(self):
        # without overrides the l1/large-l0 divisor 2k-1 ~ 47 forces n'=0
        plan = reduction_plan(symmetric_profile(or_function(8)), c=1.0)
        assert plan.k == math.ceil(6 * math.sqrt(2) * math.e)
        assert plan.n_prime == 0
        assert not plan.valid


class TestPaddingIdentity:
    @pytest.mark.parametrize("f,kwargs", [
        (L1_TOY, {"k_override": 3}),
        (LARGE_L0_TOY, {"k_override": 3}),
        (SMALL_L0_TOY, {"c": 12.0, "k_override": 3}),
    ], ids=("l1", "large-l0", "small-l0"))
    def test_identity_holds(self, f, kwargs):
        plan = reduction_plan(symmetric_profile(f), **kwargs)
        assert plan.valid
        assert padding_identity_check(plan, symmetric_profile(f)) is True

    def test_corrupted_ones_pad_detected(self):
        plan = reduction_plan(symmetric_profile(SMALL_L0_TOY), c=12.0, k_override=3)
        bad = dataclasses.replace(plan, ones_pad=plan.ones_pad + 1,
                                  zeros_pad=plan.zeros_pad - 1)
        assert padding_identity_check(bad, symmetric_profile(SMALL_L0_TOY)) is False

    def test_corrupted_composed_ones_detected(self):
        # shift a zero pad into a one pad: the layout still fills n blocks
        # but the padded weight shifts by one, breaking the identity
        plan = reduction_plan(symmetric_profile(SMALL_L0_TOY), c=12.0, k_override=3)
        bad = dataclasses.replace(
            plan, composed_ones_pad=plan.composed_ones_pad + 1,
            composed_zeros_pad=plan.composed_zeros_pad - 1)
        assert padding_identity_check(bad, symmetric_profile(SMALL_L0_TOY)) is False

    def test_composed_layout_mismatch_raises(self):
        plan = reduction_plan(symmetric_profile(L1_TOY), k_override=3)
        bad = dataclasses.replace(
            plan, composed_ones_pad=plan.composed_ones_pad + 1)
        with pytest.raises(DegeneratePlan, match="fill"):
            padding_identity_check(bad, symmetric_profile(L1_TOY))

    def test_source_layout_mismatch_raises(self):
        plan = reduction_plan(symmetric_profile(L1_TOY), k_override=3)
        bad = dataclasses.replace(plan, ones_pad=plan.ones_pad + 1)
        with pytest.raises(DegeneratePlan, match="source layout"):
            padding_identity_check(bad, symmetric_profile(L1_TOY))

    def test_negative_pad_raises_before_evaluation(self):
        plan = reduction_plan(symmetric_profile(L1_TOY), k_override=3)
        bad = dataclasses.replace(plan, composed_zeros_pad=-1)
        with pytest.raises(DegeneratePlan):
            padding_identity_check(bad, symmetric_profile(L1_TOY))

    def test_degenerate_arity_raises(self):
        plan = reduction_plan(symmetric_profile(L1_TOY), k_override=3)
        bad = dataclasses.replace(plan, source_arity=0)
        with pytest.raises(DegeneratePlan):
            padding_identity_check(bad, symmetric_profile(L1_TOY))

    def test_k_must_be_multiple_of_three(self):
        plan = reduction_plan(symmetric_profile(L1_TOY), k_override=3)
        bad = dataclasses.replace(plan, k=4)
        with pytest.raises(DegeneratePlan):
            padding_identity_check(bad, symmetric_profile(L1_TOY))

    def test_wrong_function_rejected(self):
        plan = reduction_plan(symmetric_profile(L1_TOY), k_override=3)
        with pytest.raises(ValueError):
            padding_identity_check(plan, symmetric_profile(or_function(4)))

    def test_natural_k_plan_checked_by_weight(self):
        # n = 100, l1 case at the plan's own k = 24: its restricted domain
        # has about 10^7 pairs per block, far past any enumeration
        profile = profile_from_values([0] * 51 + [1] * 50)
        plan = reduction_plan(profile)
        assert (plan.case, plan.k, plan.source_arity) == ("l1", 24, 2)
        assert plan.valid and not plan.k_overridden
        assert padding_identity_check(plan, profile) is True
        bad = dataclasses.replace(plan, ones_pad=plan.ones_pad + 1,
                                  zeros_pad=plan.zeros_pad - 1)
        assert padding_identity_check(bad, profile) is False


CASE_PLANS = [(L1_TOY, {"k_override": 3}),
              (LARGE_L0_TOY, {"k_override": 3}),
              (SMALL_L0_TOY, {"c": 12.0, "k_override": 3})]


def corruptions(plan):
    """Plans whose pads are shifted while both layouts still fill n."""
    yield dataclasses.replace(plan, ones_pad=plan.ones_pad + 1,
                              zeros_pad=plan.zeros_pad - 1)
    yield dataclasses.replace(plan, ones_pad=plan.ones_pad - 1,
                              zeros_pad=plan.zeros_pad + 1)
    yield dataclasses.replace(plan, composed_ones_pad=plan.composed_ones_pad + 1,
                              composed_zeros_pad=plan.composed_zeros_pad - 1)
    yield dataclasses.replace(plan, composed_ones_pad=plan.composed_ones_pad - 1,
                              composed_zeros_pad=plan.composed_zeros_pad + 1)


class TestIdentityAgainstTableOracle:
    @pytest.mark.parametrize("f,kwargs", CASE_PLANS, ids=("l1", "large-l0", "small-l0"))
    def test_case_plans_agree(self, f, kwargs):
        plan = reduction_plan(symmetric_profile(f), **kwargs)
        assert padding_identity_check(plan, symmetric_profile(f)) is True
        assert table_identity_check(plan, f) is True
        compared = 0
        for bad in corruptions(plan):
            if min(bad.ones_pad, bad.zeros_pad, bad.composed_ones_pad,
                   bad.composed_zeros_pad) < 0:
                continue
            assert padding_identity_check(bad, symmetric_profile(f)) == \
                table_identity_check(bad, f)
            compared += 1
        assert compared >= 1

    def test_corrupted_plan_false_on_both(self):
        plan = reduction_plan(symmetric_profile(SMALL_L0_TOY), c=12.0, k_override=3)
        bad = dataclasses.replace(plan, ones_pad=plan.ones_pad + 1,
                                  zeros_pad=plan.zeros_pad - 1)
        assert padding_identity_check(bad, symmetric_profile(SMALL_L0_TOY)) is False
        assert table_identity_check(bad, SMALL_L0_TOY) is False

    def test_every_small_plan_agrees(self):
        """The weight check against both enumerations, at k = 3 and at each
        plan's own k, on every plan and corruption with 2 <= n <= 7."""
        outcomes = set()
        for n in range(2, 8):
            for bits in range(1 << (n + 1)):
                f = from_profile([(bits >> m) & 1 for m in range(n + 1)])
                profile = symmetric_profile(f)
                for c, k_override in itertools.product((1.0, 12.0), (3, None)):
                    try:
                        plan = reduction_plan(profile, c=c, k_override=k_override)
                    except DegeneratePlan:
                        continue
                    for candidate in (plan, *corruptions(plan)):
                        try:
                            held = padding_identity_check(candidate, profile)
                        except DegeneratePlan:
                            with pytest.raises(DegeneratePlan):
                                enumerated_identity_check(candidate, profile)
                            continue
                        assert held == table_identity_check(candidate, f) == \
                            enumerated_identity_check(candidate, profile), \
                            (n, bits, c, candidate)
                        outcomes.add(held)
        assert outcomes == {True, False}


class TestPlanGridInvariants:
    def test_valid_plans_have_sane_geometry(self):
        seen_valid = 0
        for n in range(4, 9):
            for bits in range(1, (1 << (n + 1)) - 1, 3):
                prof = [(bits >> m) & 1 for m in range(n + 1)]
                f = from_profile(prof)
                try:
                    plan = reduction_plan(symmetric_profile(f), k_override=3)
                except DegeneratePlan:
                    # constant, or an odd-n flip at the middle boundary
                    # invisible to both scan ranges
                    from blockcomp.boolcube import (ell0_of_profile,
                                                    ell1_of_profile)

                    assert ell0_of_profile(prof) == 0
                    assert ell1_of_profile(prof) == 0
                    continue
                assert plan.checks
                if plan.valid:
                    seen_valid += 1
                    assert plan.n_prime >= 1
                    assert plan.n_prime <= plan.n
                    assert plan.source_arity >= 1
                    assert min(plan.ones_pad, plan.zeros_pad,
                               plan.composed_ones_pad,
                               plan.composed_zeros_pad) >= 0
                    assert plan.source_arity + plan.ones_pad + plan.zeros_pad == plan.n
        assert seen_valid > 0

"""The padding reductions from AND-composition to restricted-disjointness
composition.

The reductions concern a symmetric outer function, which they take as its
weight profile: padding a symmetric f with ones shifts its profile, so
the plan reads its source as a window of the profile and the identity check
compares two such windows; neither builds a 2^n truth table."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .approxdeg import LP_ARITY_CAP, weight_degree
from .boolcube import SymmetricProfile, ell1_of_profile
from .errors import DegeneratePlan


@dataclass(frozen=True)
class ReductionPlan:
    """One case of the reduction from f_n composed with AND to a smaller
    f_{n'} composed with restricted disjointness.

    ones_pad / zeros_pad restrict f_n down to the source function (applied
    after its first `source_arity` inputs); composed_ones_pad /
    composed_zeros_pad pad the composed instance back up to n AND-blocks.
    """

    case: str
    n: int
    ell0: int
    ell1: int
    c: float
    alpha: float
    beta: float
    n_prime: int
    k: int
    source_arity: int
    ones_pad: int
    zeros_pad: int
    composed_ones_pad: int
    composed_zeros_pad: int
    degree: int | None
    degree_symbolic: str | None
    k_overridden: bool
    checks: dict[str, bool] = field(default_factory=dict)

    @property
    def valid(self) -> bool:
        return all(self.checks.values())


def _constants(c: float) -> tuple[float, float]:
    beta = min(2.0 ** (1.0 / 3.0), (c / (12.0 * math.e)) ** (2.0 / 3.0))
    alpha = (beta / 2.0) ** 1.5
    return alpha, beta


def _source_degree(values: tuple[int, ...], arity: int, ones: int, zeros: int,
                   skip: bool) -> tuple[int | None, tuple[int, ...] | None]:
    """Profile of the source f(x 1^ones 0^zeros) and, within the LP cap, its degree."""
    if arity < 1 or ones < 0 or zeros < 0:
        return None, None
    source = values[ones:ones + arity + 1]
    if skip or arity > LP_ARITY_CAP:
        return None, source
    return weight_degree(source, Fraction(1, 3)), source


def reduction_plan(profile: SymmetricProfile, c: float = 1.0,
                   k_override: int | None = None) -> ReductionPlan:
    """Select and instantiate the reduction case for the symmetric f with
    weight profile `profile` (``symmetric_profile(f)``).

    ell0 = 0 routes to the ell1 case; otherwise ell0 <= alpha*n picks the
    small-ell0 case and the rest the large-ell0 case.  The source function
    is f with ones_pad ones and zeros_pad zeros appended, whose profile is
    a window of f's, and its degree comes from the weight LP on that window,
    within LP_ARITY_CAP; no step builds a truth table.  k_override
    substitutes a toy value for k; an overridden plan skips the degree LP
    and marks itself, and every non-negativity the argument needs "by
    direct inspection" lands in the checks dict instead of being assumed.
    """
    if not 0 < c < math.inf:  # also refuses NaN
        raise ValueError(f"c must be positive and finite, got {c}")
    if k_override is not None and k_override < 1:
        raise ValueError(f"k_override must be >= 1, got {k_override}")
    n, ell0, ell1 = profile.n, profile.ell0, profile.ell1
    alpha, beta = _constants(c)
    if ell0 == 0 and ell1 == 0:
        # constant, or (odd n) a lone flip at the middle boundary that
        # neither scan range covers
        raise DegeneratePlan("degenerate profile: both flip distances are zero")
    skip_lp = k_override is not None

    if 0 < ell0 <= alpha * n:
        case = "small-l0"
        n_prime = math.floor(beta * n ** (2.0 / 3.0) * ell0 ** (1.0 / 3.0))
        arity = n_prime
        ones = 0
        zeros = n - n_prime
        degree, source = _source_degree(profile.values, arity, ones, zeros, skip_lp)
        if k_override is not None:
            k = k_override
        elif degree is not None and degree > 0:
            k = math.ceil(6.0 * math.e * n_prime / degree)
        else:
            k = 0
        c_ones = 0
        c_zeros = n - n_prime * k
        checks = {
            "n_prime_ge_1": n_prime >= 1,
            "n_prime_le_n": n_prime <= n,
            "ell0_le_half_n_prime": 2 * ell0 <= n_prime,
            "k_computed": k >= 1,
            "composed_zeros_nonneg": c_zeros >= 0,
        }
        symbolic = f"{c}*sqrt({n_prime}*{ell0})"
    else:
        # the l1 and large-l0 cases share k and the source shape: 2n'
        # inputs, then `ones` ones and the rest zeros
        case = "l1" if ell0 == 0 else "large-l0"
        if k_override is not None:
            k = k_override
        else:
            quotient = 6.0 * math.sqrt(2.0) * math.e / c
            if not math.isfinite(quotient):
                raise ValueError(f"c = {c} is too small: 6*sqrt(2)*e/c overflows")
            k = math.ceil(quotient)
        if ell0 == 0:
            n_prime = ell1 // (2 * k - 1)
        else:
            n_prime = min((n - ell0 + 1) // (2 * k - 1), ell0 - 1)
        arity = 2 * n_prime
        ones = n - ell1 - n_prime if ell0 == 0 else ell0 - 1 - n_prime
        zeros = n - arity - ones
        c_ones = ones
        c_zeros = n - ones - 2 * k * n_prime
        degree, source = _source_degree(profile.values, arity, ones, zeros, skip_lp)
        checks = {
            "n_prime_ge_1": n_prime >= 1,
            "ones_pad_nonneg": ones >= 0,
            "zeros_pad_nonneg": zeros >= 0,
            "composed_zeros_nonneg": c_zeros >= 0,
        }
        if source is not None:
            checks["source_ell1_eq_n_prime"] = ell1_of_profile(source) == n_prime
        if case == "large-l0" and degree is not None and degree > 0:
            checks["k_ge_12en_prime_over_d"] = k >= 6.0 * math.e * arity / degree
        symbolic = f"{c}*sqrt(2)*{n_prime}"

    return ReductionPlan(
        case=case, n=n, ell0=ell0, ell1=ell1, c=c, alpha=alpha, beta=beta,
        n_prime=n_prime, k=k, source_arity=arity, ones_pad=ones,
        zeros_pad=zeros, composed_ones_pad=c_ones,
        composed_zeros_pad=c_zeros,
        degree=degree, degree_symbolic=None if degree is not None else symbolic,
        k_overridden=k_override is not None, checks=checks)


def padding_identity_check(plan: ReductionPlan, profile: SymmetricProfile) -> bool:
    """Verify that composing the restricted source with disjointness equals
    the AND-composition of f on the padded inputs, f symmetric with weight
    profile `profile`, by weight.

    Proof: each block pair of the restricted domain meets in at most one
    element, so |x AND y| = composed_ones_pad + |z| where the source reads
    f at ones_pad + |z|, and for k >= 3 every |z| in 0..source_arity occurs.
    Raises before comparing anything if a pad count is negative or the plan
    shape is unusable.
    """
    if profile.n != plan.n:
        raise ValueError(f"plan built for n={plan.n}, got n={profile.n}")
    for name, count in (("ones_pad", plan.ones_pad),
                        ("zeros_pad", plan.zeros_pad),
                        ("composed_ones_pad", plan.composed_ones_pad),
                        ("composed_zeros_pad", plan.composed_zeros_pad)):
        if count < 0:
            raise DegeneratePlan(f"{name} = {count} is negative")
    if plan.source_arity < 1:
        raise DegeneratePlan("source arity must be at least 1")
    if plan.k < 3 or plan.k % 3:
        raise DegeneratePlan("identity check needs k a positive multiple of 3")
    k, blocks = plan.k, plan.source_arity
    if blocks + plan.ones_pad + plan.zeros_pad != plan.n:
        raise DegeneratePlan(
            f"source layout {blocks} + {plan.ones_pad} + {plan.zeros_pad} "
            f"does not fill {plan.n} inputs")
    if blocks * k + plan.composed_ones_pad + plan.composed_zeros_pad != plan.n:
        raise DegeneratePlan(
            f"composed layout {blocks}*{k} + {plan.composed_ones_pad} + "
            f"{plan.composed_zeros_pad} does not fill {plan.n} blocks")
    values = profile.values
    return values[plan.ones_pad:plan.ones_pad + blocks + 1] == \
        values[plan.composed_ones_pad:plan.composed_ones_pad + blocks + 1]

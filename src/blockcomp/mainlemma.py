"""Certificates for block-composed functions from a dual witness.

Given a dual witness q for the outer function and a distribution pair for
the inner function g, h = sum_z q(z) (x)_i mu_{z_i} has unit correlation
with the composed function, entrywise L1 equal to ||q||_1, and operator
norm decaying like rho^degree.  Each mu_b has mass 1 and lies in g^{-1}(b)
by the pair's construction, so the tensor terms of distinct z have
disjoint supports, and the first two are the witness's own q.f and ||q||_1
(``DualWitness.dot`` and ``DualWitness.l1``): the chain takes no g and
never builds h.  The ratio of the first and last quantities lower-bounds
the trace norm of every entrywise approximation of the composition, which
in turn lower-bounds quantum communication.

||h|| has one route (``exact_opnorm_sq``): exact from the witness and the
pair's per-block spectrum.  The trace-norm bound comes from it alone.  The
paper's binomial-tail bound on ||h|| (``opnorm_bound``) is reported next to
it, and the CLI checks that the exact norm does not exceed it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .approxdeg import DualWitness, dual_witness
from .boolcube import BooleanFunction
from .specdisc import DistributionPair, spectral_certificate


def _over_common_denominator(values) -> tuple[list[int], int]:
    """Integers v * den for each v, den the lcm of the values' denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def exact_opnorm_sq(witness: DualWitness, pair: DistributionPair) -> Fraction:
    """||h||^2 exactly, for h the witness matrix of the witness and the
    pair, from the pair's per-block spectrum.

    On the eigen-tuple (t_1..t_n) of the n-fold product, sum_z c(z)
    prod_i e[t_i][z_i] is an eigenvalue of h for a commuting pair (c = q),
    and of h h^T for a Gram pair (c = q_hat^2, read off the witness's
    spectrum: the cross terms of h h^T vanish since plus minus^T = 0).  The
    contraction runs over integers: c is scaled by the lcm den_c of its
    denominators and the eigen table by the lcm den_e of its own, and one
    block is contracted at a time: the lowest remaining bit of the flat
    row-major list, whose eigen index goes on top.  Every eigenvalue is the
    resulting integer over den_c * den_e^n.  A Gram pair keeps only its
    dominant row, so its contraction ends in the one largest eigenvalue.
    """
    spec, n = pair.spectrum, witness.n
    if spec.gram:
        q_hat = witness.spectrum.coeffs
        coeffs = [q_hat.get(w, Fraction(0)) ** 2 for w in range(1 << n)]
    else:
        coeffs = [witness.q.get(z, Fraction(0)) for z in range(1 << n)]
    values, den_c = _over_common_denominator(coeffs)
    eigen, den_e = _over_common_denominator([e for row in spec.eigen for e in row])
    table = list(zip(eigen[0::2], eigen[1::2]))
    for _ in range(n):
        low0, low1 = values[0::2], values[1::2]
        values = [e0 * u + e1 * v for e0, e1 in table for u, v in zip(low0, low1)]
    den = den_c * den_e ** n
    if spec.gram:
        return Fraction(max(values), den)
    top = max(map(abs, values))
    return Fraction(top * top, den * den)


def opnorm_bound(witness: DualWitness, rho: float, scale: float) -> float:
    """The paper's binomial-tail bound on ||h||:
    (1 + rho)^n / (eps * scale) * sum_{l >= d} C(n, l) rho^l."""
    if not rho < 1:
        raise ValueError(f"rho = {rho} must be < 1 for the bound to decay")
    n, d = witness.n, witness.degree
    tail = sum(math.comb(n, ell) * rho ** ell for ell in range(d, n + 1))
    return (1.0 + rho) ** n / (float(witness.epsilon) * scale) * tail


def _check_epsilon_prime(epsilon_prime: Fraction, epsilon: Fraction) -> Fraction:
    try:
        epsilon_prime = Fraction(epsilon_prime)
    except ZeroDivisionError:
        raise ValueError(
            f"epsilon_prime {epsilon_prime!r} has a zero denominator") from None
    if not 0 <= epsilon_prime < epsilon:
        raise ValueError(f"epsilon_prime must lie in [0, epsilon), got {epsilon_prime}")
    return epsilon_prime


@dataclass(frozen=True)
class CertificateReport:
    """Everything the certification chain produces for one (f, pair)."""

    n: int
    degree: int
    epsilon: Fraction
    epsilon_prime: Fraction
    rho: float
    scale: float
    h_l1: Fraction
    inner_product: Fraction
    h_opnorm_exact: float
    h_opnorm_bound: float
    tracenorm_lb: float
    implied_degree_bound: float
    qcc_bits: float
    norm_source: str = "exact_spectrum"
    qcc_constant_note: str = "no hidden constant applied"


def mainlemma_certify(f: BooleanFunction, pair: DistributionPair,
                      epsilon: Fraction = Fraction(1, 3),
                      epsilon_prime: Fraction = Fraction(1, 6)
                      ) -> CertificateReport:
    """Run the full chain: dual witness, the correlation and L1 mass of h
    (the witness's q.f and ||q||_1), the exact ||h|| and its binomial-tail
    bound, the trace-norm lower bound (1 - eps'/eps) / ||h||, and the
    implied communication bound in bits."""
    epsilon_prime = _check_epsilon_prime(epsilon_prime, epsilon)
    witness = dual_witness(f, epsilon)
    cert = spectral_certificate(pair)
    scale = math.sqrt(pair.k_a * pair.k_b) ** witness.n
    bound = opnorm_bound(witness, cert.rho, scale)
    denom = math.sqrt(exact_opnorm_sq(witness, pair))
    numerator = 1.0 - float(epsilon_prime) / float(epsilon)
    route_lb = numerator / denom if denom > 0 else math.inf
    qcc = math.log2(route_lb / scale) if math.isfinite(route_lb) else math.inf
    return CertificateReport(
        n=witness.n, degree=witness.degree, epsilon=epsilon,
        epsilon_prime=epsilon_prime, rho=cert.rho, scale=scale,
        h_l1=witness.l1(), inner_product=witness.dot(f), h_opnorm_exact=denom,
        h_opnorm_bound=bound, tracenorm_lb=route_lb,
        implied_degree_bound=float(witness.degree), qcc_bits=qcc)

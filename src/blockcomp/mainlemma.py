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
pair's per-block spectrum.  The analytic binomial-tail bound
(``opnorm_bound``) is reported next to it.  The trace-norm bound comes from
the exact ||h|| alone; the paper's closed form scale * e^(d/2) / 24 is
reported as ``closed_form_lb`` for comparison and never feeds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .approxdeg import DualWitness, dual_witness
from .boolcube import BooleanFunction
from .specdisc import (DistributionPair, SpectralDiscrepancyCert,
                       spectral_certificate)


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


@dataclass(frozen=True)
class OpnormBound:
    """Analytic bound bound_r on ||h||, the binomial-tail form.  final_valid
    marks the regime rho <= d/(2en) of the paper's closed weakening
    2/(eps * scale) * exp(-d/2)."""

    n: int
    degree: int
    rho: float
    epsilon: float
    scale: float
    bound_r: float
    final_valid: bool


def opnorm_bound(q: DualWitness, cert: SpectralDiscrepancyCert) -> OpnormBound:
    if not cert.rho < 1:
        raise ValueError(f"rho = {cert.rho} must be < 1 for the bound to decay")
    n, d = q.n, q.degree
    rho = cert.rho
    eps = float(q.epsilon)
    scale = math.sqrt(cert.pair.k_a * cert.pair.k_b) ** n
    tail = sum(math.comb(n, ell) * rho ** ell for ell in range(d, n + 1))
    bound_r = (1.0 + rho) ** n / (eps * scale) * tail
    final_valid = bool(rho <= d / (2.0 * math.e * n))
    return OpnormBound(n, d, rho, eps, scale, bound_r, final_valid)


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
    closed_form_valid: bool
    closed_form_lb: float | None
    implied_degree_bound: float
    qcc_bits: float
    norm_source: str = "exact_spectrum"
    qcc_constant_note: str = "no hidden constant applied"


def mainlemma_certify(f: BooleanFunction, pair: DistributionPair,
                      epsilon: Fraction = Fraction(1, 3),
                      epsilon_prime: Fraction = Fraction(1, 6)
                      ) -> CertificateReport:
    """Run the full chain: dual witness, the correlation and L1 mass of h
    (the witness's q.f and ||q||_1), norm bounds, trace-norm lower bound,
    and the implied communication bound in bits.  The trace-norm bound is
    (1 - eps'/eps) / ||h|| from the exact ||h||; closed_form_lb is reported
    beside it, only inside its regime."""
    epsilon_prime = _check_epsilon_prime(epsilon_prime, epsilon)
    witness = dual_witness(f, epsilon)
    cert = spectral_certificate(pair)
    bounds = opnorm_bound(witness, cert)
    denom = math.sqrt(exact_opnorm_sq(witness, pair))
    numerator = 1.0 - float(epsilon_prime) / float(epsilon)
    route_lb = numerator / denom if denom > 0 else math.inf
    closed_lb = None
    if bounds.final_valid:
        closed_lb = bounds.scale * math.exp(0.5 * witness.degree) / 24.0
    qcc = math.log2(route_lb / bounds.scale) if math.isfinite(route_lb) else math.inf
    return CertificateReport(
        n=witness.n, degree=witness.degree, epsilon=epsilon,
        epsilon_prime=epsilon_prime, rho=cert.rho, scale=bounds.scale,
        h_l1=witness.l1(), inner_product=witness.dot(f), h_opnorm_exact=denom,
        h_opnorm_bound=bounds.bound_r,
        tracenorm_lb=route_lb, closed_form_valid=bounds.final_valid,
        closed_form_lb=closed_lb, implied_degree_bound=float(witness.degree),
        qcc_bits=qcc)

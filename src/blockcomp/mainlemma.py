"""Witness matrices for block-composed functions and the certificates
they imply.

Given a dual witness q for the outer function and a distribution pair for
the inner function g, h = sum_z q(z) (x)_i mu_{z_i} has unit correlation
with the composed function, entrywise L1 equal to ||q||_1, and operator
norm decaying like rho^degree.  Each mu_b lies in g^{-1}(b) by the pair's
construction, so the chain takes no g.  The ratio of the first and last
quantities lower-bounds the trace norm of every entrywise approximation of
the composition, which in turn lower-bounds quantum communication.

||h|| has one route (``h_opnorm``): exact from the pair's per-block
spectrum, without building h.  The analytic binomial-tail bound
(``opnorm_bound``) is reported next to it.  The trace-norm bound comes from
the exact ||h|| alone; the paper's closed form scale * e^(d/2) / 24 is
reported as ``closed_form_lb`` for comparison and never feeds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .approxdeg import DualWitness, dual_witness
from .boolcube import BooleanFunction, spectrum_of_values
from .errors import ArityMismatch
from .specdisc import (DistributionPair, SpectralDiscrepancyCert,
                       spectral_certificate)


@dataclass(frozen=True, eq=False)
class WitnessMatrix:
    """h = sum_z q(z) (x)_i mu_{z_i} in tensor form, with block 1 as the
    most significant kron factor; rows run over I_A^n, columns over I_B^n."""

    n: int
    pair: DistributionPair
    terms: tuple[tuple[int, Fraction], ...]
    h_l1: Fraction

    def q_values(self) -> dict[int, Fraction]:
        return dict(self.terms)


def witness_matrix_from_values(q: dict[int, Fraction], n: int,
                               pair: DistributionPair) -> WitnessMatrix:
    """Assemble h in tensor form from raw witness values."""
    if any(z < 0 or z >= 1 << n for z in q):
        raise ArityMismatch("witness support outside {0,1}^n")
    terms = tuple(sorted((z, v) for z, v in q.items() if v))
    h_l1 = sum((abs(v) for _, v in terms), Fraction(0))
    return WitnessMatrix(n, pair, terms, h_l1)


def build_witness_matrix(q: DualWitness, pair: DistributionPair) -> WitnessMatrix:
    return witness_matrix_from_values(q.q, q.n, pair)


def _over_common_denominator(values) -> tuple[list[int], int]:
    """Integers v * den for each v, den the lcm of the values' denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def exact_opnorm_sq(h: WitnessMatrix) -> Fraction:
    """||h||^2 exactly, from the pair's per-block spectrum.

    On the eigen-tuple (t_1..t_n) of the n-fold product, sum_z c(z)
    prod_i e[t_i][z_i] is an eigenvalue of h for a commuting pair (c = q),
    and of h h^T for a Gram pair (c = q_hat^2: the cross terms of h h^T
    vanish since plus minus^T = 0).  The contraction runs over integers:
    c is scaled by the lcm den_c of its denominators and the eigen table by
    the lcm den_e of its own, and one block is contracted at a time: the
    lowest remaining bit of the flat row-major list, whose eigen index goes
    on top.  Every eigenvalue is the resulting integer over den_c * den_e^n.
    """
    spec = h.pair.spectrum
    q = h.q_values()
    if spec.gram:
        q_hat = spectrum_of_values(h.n, q).coeffs
        coeffs = [q_hat.get(w, Fraction(0)) ** 2 for w in range(1 << h.n)]
    else:
        coeffs = [q.get(z, Fraction(0)) for z in range(1 << h.n)]
    values, den_c = _over_common_denominator(coeffs)
    eigen, den_e = _over_common_denominator([e for row in spec.eigen for e in row])
    table = list(zip(eigen[0::2], eigen[1::2]))
    for _ in range(h.n):
        low0, low1 = values[0::2], values[1::2]
        values = [e0 * u + e1 * v for e0, e1 in table for u, v in zip(low0, low1)]
    den = den_c * den_e ** h.n
    if spec.gram:
        return Fraction(max(values), den)
    top = max(map(abs, values))
    return Fraction(top * top, den * den)


def h_opnorm(h: WitnessMatrix) -> float:
    """||h||, the square root of the exact ``exact_opnorm_sq``."""
    return math.sqrt(exact_opnorm_sq(h))


def inner_product_with_composition(h: WitnessMatrix, f: BooleanFunction) -> Fraction:
    """tr(h^T F) for F the block composition of f and the pair's g, by the
    block-factorized identity: each mu_b lies in g^{-1}(b) by construction,
    so the tensor term for z meets F on a constant-f(z) region of mass 1,
    and the trace collapses to sum_z q(z) f(z).  Exact."""
    if f.n != h.n:
        raise ArityMismatch(f"outer arity {f.n} != witness block count {h.n}")
    return sum((coeff for z, coeff in h.terms if f.value(z)), Fraction(0))


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
    """Run the full chain: dual witness, witness matrix, norm bounds,
    trace-norm lower bound, and the implied communication bound in bits.
    The trace-norm bound is (1 - eps'/eps) / ||h|| from the exact ||h||;
    closed_form_lb is reported beside it, only inside its regime."""
    epsilon_prime = _check_epsilon_prime(epsilon_prime, epsilon)
    witness = dual_witness(f, epsilon)
    cert = spectral_certificate(pair)
    h = build_witness_matrix(witness, pair)
    inner = inner_product_with_composition(h, f)
    bounds = opnorm_bound(witness, cert)
    denom = h_opnorm(h)
    numerator = 1.0 - float(epsilon_prime) / float(epsilon)
    route_lb = numerator / denom if denom > 0 else math.inf
    closed_lb = None
    if bounds.final_valid:
        closed_lb = bounds.scale * math.exp(0.5 * witness.degree) / 24.0
    qcc = math.log2(route_lb / bounds.scale) if math.isfinite(route_lb) else math.inf
    return CertificateReport(
        n=witness.n, degree=witness.degree, epsilon=epsilon,
        epsilon_prime=epsilon_prime, rho=cert.rho, scale=bounds.scale,
        h_l1=h.h_l1, inner_product=inner, h_opnorm_exact=denom,
        h_opnorm_bound=bounds.bound_r,
        tracenorm_lb=route_lb, closed_form_valid=bounds.final_valid,
        closed_form_lb=closed_lb, implied_degree_bound=float(witness.degree),
        qcc_bits=qcc)

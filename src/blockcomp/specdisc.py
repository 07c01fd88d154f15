"""Spectral discrepancy certificates for two-party inner functions.

A certificate is a pair of b-distributions (mu0, mu1) on a rectangle
I_A x I_B, with mu_b supported where g = b.  Scaling the operator norms
of their average and half-difference by sqrt(|I_A|*|I_B|) yields the
certificate parameter rho = max(diff_scaled, sum_scaled - 1, 0): an
upper-bound witness for the (uncomputable) minimum over all pairs.

A pair is the uniform pair of g on a rectangle fixed by its family and k,
so the support condition holds by construction; it holds only the
rectangle's side lengths and its per-block spectrum (``PairSpectrum``):
closed forms for inner product (``ip_pair``), Johnson-scheme eigenvalues
for disjointness (``disj_pair``).  Its certificate is therefore exact, with
rho^2 a rational, and so is ||h|| in ``mainlemma``, which reads the same
spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .boolcube import disj_p
from .errors import SizeGuardExceeded


# ---------------------------------------------------------------------------
# distribution pairs


@dataclass(frozen=True)
class PairSpectrum:
    """Exact joint spectrum of one block of a structured pair: one entry
    (a_t, b_t) per nonempty shared eigenspace t.

    Unless ``gram``, mu0 and mu1 are symmetric and commute, and a_t, b_t are
    their eigenvalues.  With ``gram``, plus = mu0 + mu1 and minus = mu0 - mu1
    have orthogonal row spaces (plus minus^T = 0), and a_t, b_t are the
    eigenvalues of plus plus^T and minus minus^T.

    A Gram pair keeps only its dominant row, the one holding both max a and
    max b, and loses nothing by it: each eigenvalue of h h^T on the n-fold
    product is sum_w q_hat(w)^2 prod_i e[t_i][w_i], whose weights and
    entries are all >= 0, so the tuple with the dominant row in every block
    is at least every other tuple term by term; ``spectral_certificate``
    reads only max a and max b.  ip's rows are (K(K-1)/c^2, K/c^2) and
    (0, K/c^2): the first dominates in both entries.
    """

    eigen: tuple[tuple[Fraction, Fraction], ...]
    gram: bool = False


@dataclass(frozen=True)
class DistributionPair:
    """The uniform pair of g on a k_a x k_b rectangle: mu_b puts mass
    1/#(g^{-1}(b) on the rectangle) on each b-cell.  spectrum gives every
    spectral quantity of the pair exactly.  Each family's constructor picks
    a rectangle on which g takes both values."""

    k_a: int
    k_b: int
    spectrum: PairSpectrum


@dataclass(frozen=True)
class SpectralDiscrepancyCert:
    """Scaled norms of a pair and the minimal r they certify; rho_sq is
    rho^2 exactly."""

    sum_scaled: float
    diff_scaled: float
    rho: float
    rho_sq: Fraction


def spectral_certificate(pair: DistributionPair) -> SpectralDiscrepancyCert:
    """Minimal r this pair certifies: max(diff_scaled, sum_scaled - 1, 0),
    exact from the pair's spectrum."""
    spec = pair.spectrum
    # squared scaled norms of (mu0 +- mu1)/2
    area = Fraction(pair.k_a * pair.k_b, 4)
    if spec.gram:
        sum_sq = area * max(a for a, _ in spec.eigen)
        diff_sq = area * max(b for _, b in spec.eigen)
    else:
        sum_sq = area * max((a + b) ** 2 for a, b in spec.eigen)
        diff_sq = area * max((a - b) ** 2 for a, b in spec.eigen)
    if sum_sq > 1:
        # both built-in pairs have uniform marginals, so sum_scaled = 1
        raise ValueError("exact rho needs sum_scaled <= 1")
    return SpectralDiscrepancyCert(math.sqrt(sum_sq), math.sqrt(diff_sq),
                                   math.sqrt(diff_sq), diff_sq)


def family_pair(family: str, k: int) -> DistributionPair:
    """The built-in pair of a family: ``ip_pair`` or ``disj_pair``."""
    if family == "ip":
        return ip_pair(k)
    if family == "disj":
        return disj_pair(k)
    raise ValueError(f"unknown family {family!r}")


def family_bound(family: str, k: int,
                 cert: SpectralDiscrepancyCert) -> tuple[str, float, bool]:
    """The report key of a built-in family's bound on rho, the bound (3/k
    for disj, 1/sqrt(K-1) for ip) and whether the certificate meets it.
    Compared as squares of the exact rho: the ip certificate meets its
    bound with equality."""
    if family == "disj":
        return "bound_3_over_k", 3.0 / k, cert.rho_sq <= Fraction(9, k * k)
    if family == "ip":
        return ("bound_inv_sqrt_K_minus_1", 1.0 / math.sqrt((1 << k) - 1),
                cert.rho_sq <= Fraction(1, (1 << k) - 1))
    raise ValueError(f"unknown family {family!r}")


# Largest pair side accepted.  A pair builds no cells, so the cap guards no
# memory: it marks the frontier the certified figures are checked to (ip k <= 9,
# disj k <= 12), and raising it is a frontier change.
PAIR_SIDE_CAP = 512


# The largest k each family admits under the cap: ip 9 (side 2^k), disj 12
# (side C(k, k/3) >= 3^(k/3), so no k past 3 * IP_K_CAP fits).  A
# constructor compares k with these before it forms a side count, which for
# a k of a few thousand would cost more than the refusal and be too long to
# format.
IP_K_CAP = PAIR_SIDE_CAP.bit_length() - 1
DISJ_K_CAP = max(k for k in range(3, 3 * IP_K_CAP + 1, 3)
                 if math.comb(k, k // 3) <= PAIR_SIDE_CAP)


def _check_k_cap(family: str, k: int, cap: int) -> None:
    if k > cap:
        raise SizeGuardExceeded(f"{family} k = {k} exceeds the certifiable cap "
                                f"k <= {cap} (pair side <= {PAIR_SIDE_CAP})")


def ip_pair(k: int) -> DistributionPair:
    """Uniform pair of ``ip_inner(k)`` with the zero row removed from
    Alice's side (the zero row is constant and would break condition (2)).

    Each distribution is uniform on c = K(K-1)/2 cells, so plus = J/c and
    minus = H'/c for H' the Hadamard matrix without its zero row: plus plus^T
    = K J/c^2 (eigenvalues K(K-1)/c^2 and 0) and minus minus^T = K I/c^2.
    The spectrum keeps the dominant row (K(K-1)/c^2, K/c^2) alone."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_k_cap("ip", k, IP_K_CAP)
    size = 1 << k
    c = Fraction(size * (size - 1), 2)
    spectrum = PairSpectrum(((size * (size - 1) / c ** 2, size / c ** 2),), gram=True)
    return DistributionPair(size - 1, size, spectrum)


# ---------------------------------------------------------------------------
# intersection-indicator matrices on p-subsets and their exact spectra


def _check_kps(k: int, p: int, s: int) -> None:
    if not (0 <= s <= p and 2 * p <= k):
        raise ValueError(f"need 0 <= s <= p <= k/2, got k={k}, p={p}, s={s}")


def knuth_eigenvalue(k: int, p: int, s: int, t: int) -> Fraction:
    """Exact eigenvalue of the (k, p, s) intersection matrix on its t-th
    shared eigenspace."""
    _check_kps(k, p, s)
    if not 0 <= t <= p:
        raise ValueError(f"need 0 <= t <= p, got t={t}")
    total = 0
    for i in range(max(0, s + t - p), min(s, t) + 1):
        term = math.comb(t, i) * math.comb(p - i, s - i) \
            * math.comb(k - p - t + i, p - s - t + i)
        total += -term if (t - i) & 1 else term
    return Fraction(total)


def eigenspace_dimension(k: int, t: int) -> int:
    """Multiplicity of the t-th shared eigenspace."""
    return math.comb(k, t) - (math.comb(k, t - 1) if t >= 1 else 0)


def disj_weights(k: int) -> tuple[int, int, int]:
    """(M, w0, w1): subset count and the 0/1-input counts for the
    at-most-one-intersection disjointness restriction at p = k/3."""
    p = k // 3
    m = math.comb(k, p)
    w0 = m * math.comb(k - p, p)
    w1 = m * p * math.comb(k - p, p - 1)
    return m, w0, w1


def disj_pair(k: int) -> DistributionPair:
    """Uniform pair of ``disj_le1_inner(k)`` on the C(k, p) p-subsets
    (p = k/3): mu_s = J_{k,p,s} / w_s, whose shared Johnson-scheme
    eigenspaces t = 0..p carry eigenvalues disj_lambda(k, s, t)."""
    p = disj_p(k)
    _check_k_cap("disj", k, DISJ_K_CAP)
    side = math.comb(k, p)
    spectrum = PairSpectrum(tuple((disj_lambda(k, 0, t), disj_lambda(k, 1, t))
                                  for t in range(p + 1)))
    return DistributionPair(side, side, spectrum)


def disj_lambda(k: int, s: int, t: int) -> Fraction:
    """Exact eigenvalue of mu_s for the disjointness pair: knuth value / w_s."""
    p = k // 3
    _, w0, w1 = disj_weights(k)
    return knuth_eigenvalue(k, p, s, t) / (w1 if s else w0)

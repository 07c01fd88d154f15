"""Exact epsilon-approximate degree and dual witnesses.

The primal side asks for coefficients alpha_w, |w| <= D, with
|sum_w alpha_w chi_w(x) - f(x)| <= epsilon everywhere.  When that system
is infeasible at D = d-1, linear-programming duality yields a signed
measure q on the cube with

    (a) q.f = 1   (b) ||q||_1 < 1/eps   (c) |q^_w| <= 1/(2^n eps)
    (d) q^_w = 0 for |w| < d,

which this module extracts and verifies in exact rational arithmetic.

Each input takes one route to the degree d.  A symmetric f (a profile
file, or a table whose weight classes agree) has an epsilon-approximation
of degree D exactly when a univariate polynomial P of degree D has one on
its n+1 weights (Minsky-Papert symmetrization), so `weight_polynomial`
finds d and P(k) = sum_j c_j C(k, j) from an (n+1)-point LP in the
binomial basis.  `approx_degree` expands P(|x|) into the characters
chi_w, |w| <= d, and checks that expansion exactly, so `blockcomp
approxdeg` solves no 2^n-row table system for a symmetric f (MAJ_7 in
milliseconds, 17 s when it solved the table primal at d).  Any other
table sweeps the Farkas alternative over D = 0, 1, ...: d is the first D
without a solution, and the solution at D = d-1 is the raw witness.
`approx_degree` then solves the table primal once, at D = d, for the
coefficients it prints, and `dual_witness` (used by `witness` and
`mainlemma`) solves the Farkas system at D = d-1 once for a symmetric f.
Callers that read only d (`batch`, `reduce`) take `degree_of` or
`weight_degree`, which solve no table system for a symmetric f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .boolcube import (BooleanFunction, FourierSpectrum, spectrum_of_values,
                       symmetric_profile, walsh_transform)
from .errors import (ArityMismatch, EpsilonOutOfRange, NotSymmetric,
                     WitnessNotApplicable)
from .simplex import solve_feasibility

# Seconds of one `cli.main` call at eps = 1/3, interpreter start excluded, one
# process on a shared 2-vCPU Xeon guest (n = 8 with the cap raised to 8).
# A symmetric f solves no table system for `approxdeg`, which expands the
# weight LP's polynomial (MAJ_7 took 17-20 s when it solved the table primal
# at d), and one for `witness`: the Farkas system at d-1.  A seeded table
# sweeps the Farkas system up to d, and its `approxdeg` adds the primal at d;
# the seeded table holds the cap at 7:
#        witness                       approxdeg
#   n    OR_n     MAJ_n    seeded      OR_n     MAJ_n    seeded
#   6    0.01 s   0.06 s   0.17 s      0.003 s  0.003 s  0.80 s
#   7    0.01 s   0.21 s   11.5 s      0.003 s  0.004 s  41 s
#   8    0.01 s   6.6 s    (not run)   0.004 s  0.006 s  (not run)
LP_ARITY_CAP = 7


def _check_epsilon(epsilon: Fraction) -> Fraction:
    try:
        epsilon = Fraction(epsilon)
    except ZeroDivisionError:
        raise EpsilonOutOfRange(f"epsilon {epsilon!r} has a zero denominator") from None
    if not 0 < epsilon < Fraction(1, 2):
        raise EpsilonOutOfRange(f"epsilon must lie in (0, 1/2), got {epsilon}")
    return epsilon


def _check_arity(n: int) -> None:
    if n > LP_ARITY_CAP:
        raise ValueError(f"LP operations support n <= {LP_ARITY_CAP}, got {n}")


def _chi(w: int, x: int) -> int:
    return -1 if (w & x).bit_count() & 1 else 1


def monomials_up_to(n: int, degree: int) -> list[int]:
    return [w for w in range(1 << n) if w.bit_count() <= degree]


@dataclass(frozen=True)
class ApproxDegreeResult:
    """Minimal degree with realizing coefficients at that degree."""

    epsilon: Fraction
    degree: int
    coefficients: dict[int, Fraction]


@dataclass(frozen=True)
class WitnessReport:
    """Exact pass/fail of the four witness properties, with the raw values."""

    q_dot_f: Fraction
    l1: Fraction
    l1_bound: Fraction
    max_abs_coeff: Fraction
    coeff_bound: Fraction
    min_support_degree: int | None
    check_a: bool
    check_b: bool
    check_c: bool
    check_d: bool

    @property
    def all_pass(self) -> bool:
        return self.check_a and self.check_b and self.check_c and self.check_d


@dataclass(frozen=True)
class DualWitness:
    """Signed measure certifying that deg~_eps(f) >= degree."""

    n: int
    epsilon: Fraction
    degree: int
    q: dict[int, Fraction]
    spectrum: FourierSpectrum
    report: WitnessReport

    def l1(self) -> Fraction:
        return sum((abs(v) for v in self.q.values()), Fraction(0))

    def dot(self, f: BooleanFunction) -> Fraction:
        """q.f, which is also tr(h^T F) for the witness matrix h of any pair
        and the block composition F of f with the pair's g."""
        if f.n != self.n:
            raise ArityMismatch(f"arity mismatch: witness n={self.n}, f n={f.n}")
        return sum((v for x, v in self.q.items() if f.table[x]), Fraction(0))


def _split_feasible(m: int, points: Iterable[tuple[list[int], int]],
                    epsilon: Fraction) -> list[Fraction] | None:
    """Coefficients c_0..c_{m-1} with |basis . c - value| <= epsilon at every
    (basis, value) point, or None if there are none.  Each free c_t is split
    c_t = u_t - v_t with u, v >= 0 before the phase-1 solve, two rows per
    point: the upper bound, then the lower."""
    ub_rows = []
    for basis, value in points:
        row_up = basis + [-b for b in basis]
        ub_rows.append((row_up, value + epsilon))
        ub_rows.append(([-c for c in row_up], epsilon - value))
    solution = solve_feasibility(2 * m, ub_rows=ub_rows)
    if solution is None:
        return None
    return [solution[t] - solution[m + t] for t in range(m)]


def lp_feasible(f: BooleanFunction, epsilon: Fraction, degree_cap: int
                ) -> dict[int, Fraction] | None:
    """Coefficients alpha_w realizing an epsilon-approximation with support
    |w| <= degree_cap, or None if the system is infeasible.

    Solved by ``_split_feasible`` over the characters chi_w.
    """
    epsilon = _check_epsilon(epsilon)
    _check_arity(f.n)
    if not 0 <= degree_cap <= f.n:
        raise ValueError(f"degree cap must lie in [0, {f.n}]")
    monos = monomials_up_to(f.n, degree_cap)
    points = (([_chi(w, x) for w in monos], f.table[x]) for x in range(1 << f.n))
    coeffs = _split_feasible(len(monos), points, epsilon)
    return None if coeffs is None else dict(zip(monos, coeffs))


def weight_polynomial(values: Sequence[int], epsilon: Fraction) -> list[Fraction]:
    """Coefficients c_0..c_d of the least degree d such that
    |sum_j c_j C(k, j) - values[k]| <= eps for every k = 0..n, where
    values[k] is the value of a symmetric function at weight k.

    The binomials C(k, j), j <= D, span the univariate polynomials of
    degree <= D, and symmetrizing an approximation of the table gives one on
    the weights, so d is the table degree.  D = n always interpolates, so
    the sweep solves D = 0..n-1 only; at d = n the coefficients are the
    forward differences of values, whose polynomial is values itself.
    """
    epsilon = _check_epsilon(epsilon)
    n = len(values) - 1
    for degree in range(n):
        points = (([math.comb(k, j) for j in range(degree + 1)], fk)
                  for k, fk in enumerate(values))
        coeffs = _split_feasible(degree + 1, points, epsilon)
        if coeffs is not None:
            return coeffs
    return [Fraction(sum((-1) ** (j - i) * math.comb(j, i) * values[i]
                         for i in range(j + 1))) for j in range(n + 1)]


def weight_degree(values: Sequence[int], epsilon: Fraction) -> int:
    """deg~_eps of the symmetric function whose value at weight k is
    values[k], k = 0..n: the degree of ``weight_polynomial``."""
    return len(weight_polynomial(values, epsilon)) - 1


def dual_system_witness(f: BooleanFunction, epsilon: Fraction, degree_cap: int
                        ) -> dict[int, Fraction] | None:
    """Solve the alternative (Farkas) system against support |w| <= degree_cap:
    an unnormalized q orthogonal to all chi_w, |w| <= degree_cap, with
    q.f >= 1 + eps*||q||_1.  Returns None when no certificate exists, i.e.
    exactly when the primal system at the same cap is feasible.
    """
    epsilon = _check_epsilon(epsilon)
    _check_arity(f.n)
    size = 1 << f.n
    monos = monomials_up_to(f.n, degree_cap)
    eq_rows = []
    for w in monos:
        signs = [_chi(w, x) for x in range(size)]
        eq_rows.append((signs + [-s for s in signs], 0))
    # q = q_minus - q_plus; the certificate row scales the strict Farkas
    # inequality to <= -1
    row = [f.table[x] + epsilon for x in range(size)]
    row += [epsilon - f.table[x] for x in range(size)]
    ub_rows = [(row, Fraction(-1))]
    solution = solve_feasibility(2 * size, eq_rows=eq_rows, ub_rows=ub_rows)
    if solution is None:
        return None
    q = {}
    for x in range(size):
        v = solution[size + x] - solution[x]
        if v:
            q[x] = v
    return q


def _prepare(f: BooleanFunction, epsilon: Fraction
             ) -> tuple[Fraction, tuple[int, ...] | None]:
    """The checked epsilon and f's weight profile, None if f is not
    symmetric, refusing n past LP_ARITY_CAP before any solve."""
    epsilon = _check_epsilon(epsilon)
    _check_arity(f.n)
    try:
        return epsilon, symmetric_profile(f).values
    except NotSymmetric:
        return epsilon, None


def _farkas_sweep(f: BooleanFunction, epsilon: Fraction
                  ) -> tuple[int, dict[int, Fraction] | None]:
    """deg~_eps(f) = d of a table and the raw (unnormalized) witness found
    at D = d-1, by sweeping dual_system_witness over D = 0, 1, ...: by the
    theorem of alternatives (Farkas' lemma) it has a solution at cap D
    exactly when lp_feasible at cap D has none, so d is the first D without
    one.  At D = n the equality rows force q = 0 and the certificate row
    reads 0 <= -1, so the sweep ends at D = n-1: feasible there means d = n.
    """
    degree, raw = 0, None
    while degree < f.n:
        certificate = dual_system_witness(f, epsilon, degree)
        if certificate is None:
            break
        degree, raw = degree + 1, certificate
    return degree, raw


def _degree(f: BooleanFunction, epsilon: Fraction
            ) -> tuple[Fraction, int, dict[int, Fraction] | None]:
    """The checked epsilon, deg~_eps(f) = d and the raw witness at D = d-1:
    ``weight_degree`` and no witness for a symmetric f, the Farkas sweep for
    any other table.  Such a table is not constant, so d >= 1 and its
    witness is never None."""
    epsilon, values = _prepare(f, epsilon)
    if values is None:
        return (epsilon, *_farkas_sweep(f, epsilon))
    return epsilon, weight_degree(values, epsilon), None


def _contradiction(source: str, system: str, degree: int) -> RuntimeError:
    return RuntimeError(f"the {source} gives degree {degree} but the table "
                        f"{system} has no solution where it must")


def _symmetric_approximation(n: int, values: tuple[int, ...], epsilon: Fraction
                             ) -> ApproxDegreeResult:
    """The weight polynomial P of degree d, expanded into the characters:
    alpha_w is the Walsh coefficient of the table x -> P(|x|).  Each C(|x|, j)
    has Fourier degree j, so no |w| > d carries mass, and |P(k) - f_k| <=
    eps at every weight k then makes alpha a degree-d eps-approximation;
    both are checked exactly."""
    coeffs = weight_polynomial(values, epsilon)
    degree = len(coeffs) - 1
    poly = [sum(c * math.comb(k, j) for j, c in enumerate(coeffs)) for k in range(n + 1)]
    for k, (pk, fk) in enumerate(zip(poly, values)):
        if abs(pk - fk) > epsilon:
            raise RuntimeError(f"the weight LP polynomial of degree {degree} is "
                               f"{pk} at weight {k}, more than {epsilon} from {fk}")
    out = walsh_transform([poly[x.bit_count()] for x in range(1 << n)])
    for w, v in enumerate(out):
        if v and w.bit_count() > degree:
            raise RuntimeError(f"the weight LP polynomial of degree {degree} "
                               f"expands onto character {w} of degree {w.bit_count()}")
    return ApproxDegreeResult(epsilon, degree, {w: Fraction(out[w], 1 << n)
                                                for w in monomials_up_to(n, degree)})


def approx_degree(f: BooleanFunction, epsilon: Fraction) -> ApproxDegreeResult:
    """Smallest D with lp_feasible nonempty and coefficients there.  A
    symmetric f expands its weight polynomial and solves no table system;
    any other table takes D from the Farkas sweep, then solves the primal
    once at D."""
    epsilon, values = _prepare(f, epsilon)
    if values is not None:
        return _symmetric_approximation(f.n, values, epsilon)
    degree, _ = _farkas_sweep(f, epsilon)
    coeffs = lp_feasible(f, epsilon, degree)
    if coeffs is None:
        raise _contradiction("Farkas sweep", "primal", degree)
    return ApproxDegreeResult(epsilon, degree, coeffs)


def degree_of(f: BooleanFunction, epsilon: Fraction) -> int:
    """deg~_eps(f) alone, for callers that need no coefficients and no
    witness: a symmetric f solves no table system."""
    return _degree(f, epsilon)[1]


def dual_witness(f: BooleanFunction, epsilon: Fraction) -> DualWitness:
    """Find deg~_eps(f) = d and its raw witness at D = d-1 (the sweep's for a
    table, one Farkas solve for a symmetric f), then normalize (q.f = 1) and
    verify."""
    epsilon, degree, raw = _degree(f, epsilon)
    if degree == 0:
        raise WitnessNotApplicable(
            f"f is epsilon-approximable by a constant (degree 0 at eps={epsilon})")
    if raw is None:
        raw = dual_system_witness(f, epsilon, degree - 1)
        if raw is None:
            raise _contradiction("weight LP", "Farkas system", degree)
    scale = sum((v for x, v in raw.items() if f.table[x]), Fraction(0))
    if scale <= 0:
        # cannot occur: the certificate row forces q.f >= 1 + eps*||q||_1
        raise RuntimeError(f"degenerate certificate with q.f = {scale}")
    q = {x: v / scale for x, v in raw.items()}
    spectrum = spectrum_of_values(f.n, q)
    witness = DualWitness(f.n, epsilon, degree, q, spectrum, None)  # type: ignore[arg-type]
    report = verify_witness(witness, f)
    witness = DualWitness(f.n, epsilon, degree, q, spectrum, report)
    if not report.all_pass:
        raise RuntimeError(f"extracted witness failed verification: {report}")
    return witness


def verify_witness(witness: DualWitness, f: BooleanFunction) -> WitnessReport:
    """Re-check the four witness properties by direct summation, exactly."""
    q_dot_f = witness.dot(f)
    l1 = witness.l1()
    l1_bound = 1 / witness.epsilon
    coeffs = witness.spectrum.coeffs
    max_abs = max((abs(c) for c in coeffs.values()), default=Fraction(0))
    coeff_bound = Fraction(1, 1 << witness.n) / witness.epsilon
    min_deg = witness.spectrum.min_degree()
    return WitnessReport(
        q_dot_f=q_dot_f,
        l1=l1,
        l1_bound=l1_bound,
        max_abs_coeff=max_abs,
        coeff_bound=coeff_bound,
        min_support_degree=min_deg,
        check_a=q_dot_f == 1,
        check_b=l1 < l1_bound,
        check_c=max_abs <= coeff_bound,
        check_d=min_deg is None or min_deg >= witness.degree,
    )

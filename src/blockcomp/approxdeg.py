"""Exact epsilon-approximate degree and dual witnesses.

The primal side asks for coefficients alpha_w, |w| <= D, with
|sum_w alpha_w chi_w(x) - f(x)| <= epsilon everywhere.  When that system
is infeasible at D = d-1, linear-programming duality yields a signed
measure q on the cube with

    (a) q.f = 1   (b) ||q||_1 < 1/eps   (c) |q^_w| <= 1/(2^n eps)
    (d) q^_w = 0 for |w| < d,

which this module extracts and verifies in exact rational arithmetic.

Every input takes one route: a sweep of the Farkas alternative over
D = 0, 1, ... on the orbits of the cube under f's symmetries, one point per
orbit, each a basis row and f's value there.  d is the first D without a
solution, and the solution at D = d-1 is the raw witness.  The solve at
D = d is infeasible, and its Farkas certificate is a degree-d approximation
P on the same points (see ``_farkas``).  A table's orbits are its 2^n
inputs x, with the characters chi_w(x), |w| <= D.  A symmetric f (a profile
file, or a table whose weight classes agree) has an epsilon-approximation
of degree D exactly when a univariate polynomial of degree D has one on its
n+1 weights (Minsky-Papert symmetrization), and a symmetric q is orthogonal
to every chi_w, |w| <= D, exactly when its weight masses are orthogonal to
the binomials C(k, j), j <= D.  So its orbits are its n+1 weight classes,
with those binomials, and no subcommand solves a 2^n-row system for it.
``_route`` maps both results back onto the table, whatever the orbits: q(x)
is the mass of x's orbit over the orbit's size, and P(x) is P on x's orbit.
`approx_degree` Walsh-transforms P into alpha_w, |w| <= d, checks it
exactly and solves no primal.  Callers that read only d (`batch`,
`reduce`) take `degree_of` or `weight_degree`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

from .boolcube import (BooleanFunction, FourierSpectrum, spectrum_of_values,
                       symmetric_profile, walsh_transform)
from .errors import (ArityMismatch, EpsilonOutOfRange, NotSymmetric,
                     WitnessNotApplicable)
from .simplex import solve_feasibility

# Seconds of one `cli.main` call at eps = 1/3, interpreter start excluded, one
# process on a shared 2-vCPU Xeon guest (n = 8 with the cap raised to 8).
# A symmetric f solves only systems on its n+1 weights (MAJ_n is 1 above
# weight n/2).  A seeded table sweeps the Farkas system on its 2^n points up
# to d, for `witness` and `approxdeg` alike; the seeded table holds the cap
# at 7:
#        witness                       approxdeg
#   n    OR_n     MAJ_n    seeded      OR_n     MAJ_n    seeded
#   6    0.003 s  0.003 s  0.17 s      0.003 s  0.004 s  0.25 s
#   7    0.004 s  0.006 s  12-16 s     0.004 s  0.006 s  17 s
#   8    0.008 s  0.009 s  (not run)   0.006 s  0.009 s  (not run)
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


def _farkas(points: Sequence[tuple[list[int], int]], epsilon: Fraction
            ) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """The alternative to an approximation P in the span of the basis
    columns with |P_p - value_p| <= eps at every (basis, value) point: an
    unnormalized q_p at each point, orthogonal to every basis column, with
    q.f >= 1 + eps*||q||_1.  q = z_(N+p) - z_p; the certificate row scales
    the strict Farkas inequality to <= -1.  Returns (q, None) or, when no q
    exists, (None, P).  P is read off the infeasible solve's certificate
    r: its simplex multipliers over mu weight the basis columns, so
    P_p = value_p + eps - r_p = value_p - eps + r_(N+p), and r >= 0 puts P
    within eps of every value."""
    size = len(points)
    eq_rows = [(list(column) + [-b for b in column], 0)
               for column in zip(*(basis for basis, _ in points))]
    row = [value + epsilon for _, value in points]
    row += [epsilon - value for _, value in points]
    x, certificate = solve_feasibility(2 * size, eq_rows=eq_rows,
                                       ub_rows=[(row, Fraction(-1))])
    if x is None:
        return None, [value + epsilon - r for (_, value), r in zip(points, certificate)]
    return [x[size + p] - x[p] for p in range(size)], None


def _table_points(f: BooleanFunction, degree: int) -> list[tuple[list[int], int]]:
    """The 2^n inputs x with their characters chi_w(x), |w| <= degree."""
    monos = monomials_up_to(f.n, degree)
    return [([_chi(w, x) for w in monos], f.table[x]) for x in range(1 << f.n)]


def _weight_points(values: Sequence[int], degree: int) -> list[tuple[list[int], int]]:
    """The n+1 weights k with their binomials C(k, j), j <= degree."""
    return [([math.comb(k, j) for j in range(degree + 1)], fk)
            for k, fk in enumerate(values)]


def _sweep(n: int, points: Callable[[int], list[tuple[list[int], int]]],
           epsilon: Fraction) -> tuple[int, list[Fraction] | None, list[Fraction] | None]:
    """d, the first D = 0, 1, ... at which ``_farkas`` on ``points(D)`` has
    no solution, its solution at D = d-1 (None when d = 0), and the
    approximation P read off the infeasible solve at D = d (None when
    d = n).  By the theorem of alternatives (Farkas' lemma) it has one
    exactly when no degree-D approximation exists.  At D = n the basis
    spans every function on the points, so the equality rows force q = 0
    and the certificate row reads 0 <= -1: the sweep ends at D = n-1, and a
    solution there means d = n."""
    degree, raw, poly = 0, None, None
    while degree < n:
        witness, poly = _farkas(points(degree), epsilon)
        if witness is None:
            break
        degree, raw = degree + 1, witness
    return degree, raw, poly


def weight_degree(values: Sequence[int], epsilon: Fraction) -> int:
    """deg~_eps of the symmetric function whose value at weight k is
    values[k], k = 0..n, from the sweep on its weights alone."""
    return _sweep(len(values) - 1, partial(_weight_points, values),
                  _check_epsilon(epsilon))[0]


def _route(f: BooleanFunction, epsilon: Fraction) -> tuple[
        Fraction, int, dict[int, Fraction] | None, Sequence[Fraction | int]]:
    """The checked epsilon, deg~_eps(f) = d, the raw witness q at D = d-1
    (None when d = 0) and the approximation P at d (f's table when d = n),
    both on the table.  The sweep runs on one point per orbit: each input
    is its own orbit for a table, and the inputs of weight k form one for a
    symmetric f.  q(x) is the mass of x's orbit over its size, and P(x) is
    P on x's orbit.  n past LP_ARITY_CAP is refused before any solve."""
    epsilon = _check_epsilon(epsilon)
    _check_arity(f.n)
    cube = range(1 << f.n)
    try:
        points = partial(_weight_points, symmetric_profile(f).values)
        orbit = [x.bit_count() for x in cube]
    except NotSymmetric:
        points, orbit = partial(_table_points, f), list(cube)
    degree, mass, poly = _sweep(f.n, points, epsilon)
    size = Counter(orbit)
    raw = None if mass is None else {x: mass[a] / size[a]
                                     for x, a in enumerate(orbit) if mass[a]}
    return epsilon, degree, raw, f.table if poly is None else [poly[a] for a in orbit]


def approx_degree(f: BooleanFunction, epsilon: Fraction) -> ApproxDegreeResult:
    """d from the Farkas sweep and, from the certificate of its infeasible
    solve at d, a degree-d eps-approximation P on the table (f itself at
    d = n).  alpha_w is P's Walsh coefficient; |P(x) - f(x)| <= eps at
    every x and no mass on |w| > d are both checked exactly."""
    epsilon, degree, _, table = _route(f, epsilon)
    for x, (px, fx) in enumerate(zip(table, f.table)):
        if abs(px - fx) > epsilon:
            raise RuntimeError(f"the degree-{degree} polynomial read off the Farkas "
                               f"certificate is {px} at {x}, more than {epsilon} from {fx}")
    out = walsh_transform(table)
    for w, v in enumerate(out):
        if v and w.bit_count() > degree:
            raise RuntimeError(f"the degree-{degree} polynomial read off the Farkas "
                               f"certificate expands onto character {w} of degree "
                               f"{w.bit_count()}")
    return ApproxDegreeResult(epsilon, degree, {w: Fraction(out[w], 1 << f.n)
                                                for w in monomials_up_to(f.n, degree)})


def degree_of(f: BooleanFunction, epsilon: Fraction) -> int:
    """deg~_eps(f) alone, for callers that need no coefficients and no
    witness: the Farkas sweep and no primal."""
    return _route(f, epsilon)[1]


def dual_witness(f: BooleanFunction, epsilon: Fraction) -> DualWitness:
    """Find deg~_eps(f) = d and the sweep's raw witness q at D = d-1, then
    normalize it (q.f = 1) and verify."""
    epsilon, degree, raw, _ = _route(f, epsilon)
    if raw is None:
        raise WitnessNotApplicable(
            f"f is epsilon-approximable by a constant (degree 0 at eps={epsilon})")
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

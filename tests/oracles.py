"""Reference implementations the tests check the library against, and the
named functions they feed it.

The named functions are constants, OR, AND, parity, projections and
negation; ``inner_to_dict`` writes an inner function in its JSON wire
format.  Each reference computes by enumeration or dense materialization
what the library derives from structure: truth-table restrictions and
block compositions, the inner tables as matrices, cells and row
restrictions, uniform pairs on any rectangle, a built-in pair's labels,
block and full spectrum rebuilt from its family and k, its cell-by-cell
masses, dense SVD norms of a pair and of its witness matrix h, ||h||^2
contracted over Fractions, the restricted composition and an
explicit-approximation trace-norm bound, dense intersection matrices and
closed-form spectra, the approximate degree and its coefficients by the
primal sweeps on the table and on the weights, the table Farkas system
at one degree cap, a guard that lets ``approxdeg`` solve Farkas systems
only and the sizes of the systems each sweep solves, the Paturi ratio of a
symmetric function, the padding identity point by point, a decision
tree's depth and value, the protocol simulations one subprotocol call at
a time, the dense symand input draw, and ``simulate``'s output with one
dict per trial line.  Dense work honours ``boolcube.MAX_MATERIALIZE``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Iterator, Sequence

import numpy as np

from blockcomp import approxdeg, boolcube, cli
from blockcomp.applications import ReductionPlan
from blockcomp.approxdeg import (ApproxDegreeResult, DualWitness, _check_arity,
                                _check_epsilon, _farkas, _table_points,
                                _weight_points, approx_degree, monomials_up_to)
from blockcomp.boolcube import (UNDEF, BooleanFunction, InnerFunction,
                                SymmetricProfile, disj_le1_inner, from_predicate,
                                ip_inner, weight_subsets)
from blockcomp.errors import ArityMismatch, DegeneratePlan, SizeGuardExceeded
from blockcomp.mainlemma import _check_epsilon_prime, exact_opnorm_sq
from blockcomp.protocols import (DecisionTree, HamOracleConfig, Leaf, Node,
                                 optimal_decision_tree, repetition_schedule,
                                 za_header_bits)
from blockcomp.simplex import solve_feasibility
from blockcomp.specdisc import (DISJ_K_CAP, DistributionPair, _check_kps,
                                disj_lambda)

# ---------------------------------------------------------------------------
# named functions, truth tables, inner functions and block composition


def constant_function(n: int, bit: int) -> BooleanFunction:
    return BooleanFunction(n, (bit,) * (1 << n))


def or_function(n: int) -> BooleanFunction:
    return from_predicate(n, lambda x: x != 0)


def and_function(n: int) -> BooleanFunction:
    full = (1 << n) - 1
    return from_predicate(n, lambda x: x == full)


def parity_function(n: int) -> BooleanFunction:
    return from_predicate(n, lambda x: x.bit_count() & 1)


def projection(n: int, i: int) -> BooleanFunction:
    """f(x) = x_i (1-based)."""
    return from_predicate(n, lambda x: (x >> (i - 1)) & 1)


def negate(f: BooleanFunction) -> BooleanFunction:
    return BooleanFunction(f.n, tuple(1 - b for b in f.table))


def pad_restrict(f: BooleanFunction, ones: int, zeros: int) -> BooleanFunction:
    """Restriction f'(x) = f(x 1^ones 0^zeros), suffix appended in that order."""
    if ones < 0 or zeros < 0:
        raise ValueError("pad counts must be non-negative")
    n_prime = f.n - ones - zeros
    if n_prime < 1:
        raise ArityMismatch(f"restricted arity {n_prime} < 1")
    suffix = ((1 << ones) - 1) << n_prime
    table = tuple(f.table[x | suffix] for x in range(1 << n_prime))
    return BooleanFunction(n_prime, table)


def all_functions(n: int) -> Iterator[BooleanFunction]:
    """Every truth table of arity n, in order of its bits read as an integer."""
    for bits in range(1 << (1 << n)):
        yield BooleanFunction(n, tuple((bits >> x) & 1 for x in range(1 << n)))


def seeded_table(n: int, seed: int) -> BooleanFunction:
    rng = random.Random(f"table:{n}:{seed}")
    return BooleanFunction(n, tuple(rng.getrandbits(1) for _ in range(1 << n)))


# every function of arity <= 3 and three seeded tables each of arity 4 and 5:
# the grid on which the exact routes are checked against their references
SWEEP_FUNCTIONS = ([f for n in (1, 2, 3) for f in all_functions(n)]
                   + [seeded_table(n, seed) for n in (4, 5) for seed in range(3)])


def inner_to_dict(g: InnerFunction) -> dict:
    side = 1 << g.k
    cells = ["u" if v == UNDEF else str(v) for v in g.values]
    return {"k": g.k, "rows": [cells[i:i + side] for i in range(0, len(cells), side)]}


def value_matrix(g: InnerFunction) -> np.ndarray:
    """g's table as a 2^k x 2^k int8 matrix (a view of the flat values)."""
    side = 1 << g.k
    return np.frombuffer(g.values, dtype=np.int8).reshape(side, side)


def is_total(g: InnerFunction) -> bool:
    """Whether g is defined on every cell."""
    return UNDEF not in g.values


def inner_of_rows(k: int, rows: Sequence[Sequence[int]]) -> InnerFunction:
    """Inner function from a list of 2^k rows of cell values."""
    return InnerFunction(k, array("b", [v for row in rows for v in row]))


def domain(g: InnerFunction) -> Iterator[tuple[int, int]]:
    """g's defined cells (x, y) in row-major order."""
    xs, ys = np.nonzero(value_matrix(g) != UNDEF)
    return zip(xs.tolist(), ys.tolist())


def restrict_rows(g: InnerFunction, rows: Sequence[int]) -> InnerFunction:
    """Partial function keeping only the given row inputs defined."""
    side = 1 << g.k
    values = array("b", [UNDEF]) * (side * side)
    for x in rows:
        values[x * side:(x + 1) * side] = g.values[x * side:(x + 1) * side]
    return InnerFunction(g.k, values)


def random_inner(k: int, seed: int) -> InnerFunction:
    """Seeded uniformly random total inner function."""
    rng = np.random.default_rng(seed)
    side = 1 << k
    table = rng.integers(0, 2, size=(side, side), dtype=np.int8)
    return InnerFunction(k, array("b", table.tobytes()))


def loop_disj_le1_inner(k: int) -> InnerFunction:
    """``disj_le1_inner`` by a double loop over pairs of p-subsets."""
    p = k // 3
    side = 1 << k
    values = [[UNDEF] * side for _ in range(side)]
    masks = weight_subsets(k, p)
    for x in masks:
        for y in masks:
            inter = (x & y).bit_count()
            if inter <= 1:
                values[x][y] = 1 if inter == 1 else 0
    return inner_of_rows(k, values)


@dataclass(frozen=True, eq=False)
class ComposedFunction:
    """Materialized f(g(x_1,y_1), ..., g(x_n,y_n)) on {0,1}^{nk} x {0,1}^{nk}."""

    f: BooleanFunction
    g: InnerFunction
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.f.n

    @property
    def k(self) -> int:
        return self.g.k

    def value(self, x: int, y: int) -> int | None:
        v = int(self.values[x, y])
        return None if v == UNDEF else v


def block_compose(f: BooleanFunction, g: InnerFunction) -> ComposedFunction:
    """Compose f with g blockwise; block i of an input is bits (i-1)k..ik-1."""
    n, k = f.n, g.k
    side = 1 << (n * k)
    limit = boolcube.MAX_MATERIALIZE
    if side > limit:
        raise SizeGuardExceeded(f"2^(nk) = {side} exceeds limit {limit}")
    mask = (1 << k) - 1
    coords = np.arange(side)
    table = value_matrix(g)
    z_index = np.zeros((side, side), dtype=np.int16)
    undefined = np.zeros((side, side), dtype=bool)
    for i in range(n):
        xi = (coords >> (i * k)) & mask
        yi = xi
        block = table[np.ix_(xi, yi)]
        undefined |= block == UNDEF
        z_index |= (block == 1).astype(np.int16) << i
    f_table = np.array(f.table, dtype=np.int8)
    values = f_table[z_index]
    values[undefined] = UNDEF
    return ComposedFunction(f, g, values)


# ---------------------------------------------------------------------------
# distribution pairs, dense


@dataclass(frozen=True, eq=False)
class BlockPair:
    """g's value block on the rectangle i_a x i_b (input labels): the
    uniform pair of g there, for the dense references below."""

    i_a: tuple[int, ...]
    i_b: tuple[int, ...]
    block: np.ndarray

    @property
    def k_a(self) -> int:
        return len(self.i_a)

    @property
    def k_b(self) -> int:
        return len(self.i_b)


def uniform_pair(g: InnerFunction,
                 rows: Sequence[int] | None = None,
                 cols: Sequence[int] | None = None) -> BlockPair:
    """Uniform b-distributions on g^{-1}(b) restricted to rows x cols."""
    side = 1 << g.k
    i_a = tuple(rows) if rows is not None else tuple(range(side))
    i_b = tuple(cols) if cols is not None else tuple(range(side))
    block = value_matrix(g)[np.ix_(i_a, i_b)]
    for b in (0, 1):
        if not (block == b).any():
            raise ValueError(f"g has no {b}-inputs on the chosen rectangle")
    return BlockPair(i_a, i_b, block)


def pair_family(pair: DistributionPair) -> tuple[str, int]:
    """The family and k of a built-in pair, read off its side lengths alone:
    ip's rectangle is (2^k - 1) x 2^k, disj's is C(k, k/3) x C(k, k/3)."""
    if pair.k_b == pair.k_a + 1:
        return "ip", pair.k_b.bit_length() - 1
    return "disj", next(k for k in range(3, DISJ_K_CAP + 1, 3)
                        if math.comb(k, k // 3) == pair.k_a)


def block_pair(pair: DistributionPair | BlockPair) -> BlockPair:
    """A BlockPair as it is; a built-in pair as the uniform pair of its
    family's inner function on the family's rectangle, with the labels
    rebuilt from family and k: rows 1..K-1 by all K columns for ip (the
    zero row removed), the p-subsets in ``weight_subsets`` order on both
    sides for disj (p = k/3)."""
    if isinstance(pair, BlockPair):
        return pair
    family, k = pair_family(pair)
    if family == "ip":
        return uniform_pair(ip_inner(k), rows=range(1, 1 << k))
    subsets = weight_subsets(k, k // 3)
    return uniform_pair(disj_le1_inner(k), subsets, subsets)


def dense(pair: DistributionPair | BlockPair, b: int) -> np.ndarray:
    """mu_b as a float matrix over the rectangle."""
    cells = block_pair(pair).block == b
    return cells / cells.sum()


def operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value, by a dense SVD."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.size == 0:
        return 0.0
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return float(np.linalg.svd(m, compute_uv=False)[0])


def dense_certificate(pair: DistributionPair | BlockPair) -> tuple[float, float, float]:
    """(sum_scaled, diff_scaled, rho) of ``spectral_certificate``, by one
    dense SVD of each of (mu0 +- mu1)/2."""
    pair = block_pair(pair)
    scale = math.sqrt(pair.k_a * pair.k_b)
    mu0, mu1 = dense(pair, 0), dense(pair, 1)
    sum_scaled = scale * operator_norm((mu0 + mu1) / 2.0)
    diff_scaled = scale * operator_norm((mu0 - mu1) / 2.0)
    return sum_scaled, diff_scaled, max(diff_scaled, sum_scaled - 1.0, 0.0)


def witness_shape(n: int, pair: DistributionPair | BlockPair) -> tuple[int, int]:
    """Rows and columns of the dense witness matrix h: I_A^n x I_B^n."""
    return (pair.k_a ** n, pair.k_b ** n)


def require_materialized(q: dict[int, Fraction], n: int,
                         pair: DistributionPair | BlockPair) -> np.ndarray:
    """Dense h = sum_z q(z) (x)_i mu_{z_i}, block 1 the most significant kron
    factor, built within the materialization guard."""
    shape = witness_shape(n, pair)
    if max(shape) > boolcube.MAX_MATERIALIZE:
        raise SizeGuardExceeded(
            f"witness matrix of shape {shape} exceeds the materialization guard")
    pair = block_pair(pair)
    mus = [dense(pair, 0), dense(pair, 1)]
    mat = np.zeros(shape)
    for z, coeff in sorted(q.items()):
        factors = [mus[(z >> (i - 1)) & 1] for i in range(1, n + 1)]
        mat += float(coeff) * reduce(np.kron, factors)
    return mat


def full_spectrum(pair: DistributionPair) -> tuple[bool, list[tuple[Fraction, Fraction]]]:
    """Whether the pair is Gram, and every row of its per-block spectrum,
    rebuilt from family and k without reading ``pair.spectrum``.  ip (Gram,
    K = 2^k, c = K(K-1)/2): plus plus^T = K J/c^2 and minus minus^T =
    K I/c^2 on the K-1 rows share the eigenspaces of the ones vector,
    (K(K-1)/c^2, K/c^2), and of its complement, (0, K/c^2), which is empty
    for K = 2.  disj: (disj_lambda(k, 0, t), disj_lambda(k, 1, t)) for
    t = 0..k/3."""
    family, k = pair_family(pair)
    if family == "ip":
        big = 1 << k
        c = Fraction(big * (big - 1), 2)
        rows = [(big * (big - 1) / c ** 2, big / c ** 2), (Fraction(0), big / c ** 2)]
        return True, rows[:1] if big == 2 else rows
    return False, [(disj_lambda(k, 0, t), disj_lambda(k, 1, t))
                   for t in range(k // 3 + 1)]


def fraction_opnorm_sq(q: dict[int, Fraction], n: int,
                       pair: DistributionPair) -> Fraction:
    """||h||^2 from the pair's full per-block spectrum (``full_spectrum``),
    contracting Fractions: on each eigen-tuple of the n-fold product,
    sum_z c(z) prod_i e[t_i][z_i] with c = q (an eigenvalue of h, to be
    squared) or, for a Gram pair, c = q_hat^2 (an eigenvalue of h h^T), one
    block axis at a time through an object-dtype tensordot; the maximum is
    taken over every tuple."""
    gram, eigen = full_spectrum(pair)
    if gram:
        q_hat = boolcube.spectrum_of_values(n, q).coeffs
        coeffs = [q_hat.get(w, Fraction(0)) ** 2 for w in range(1 << n)]
    else:
        coeffs = [q.get(z, Fraction(0)) for z in range(1 << n)]
    values = np.array(coeffs, dtype=object).reshape((2,) * n)
    table = np.array(eigen, dtype=object)
    for _ in range(n):
        values = np.tensordot(table, values, axes=([1], [values.ndim - 1]))
    if gram:
        return max(values.flat)
    return max(v * v for v in values.flat)


def pair_matches(pair: DistributionPair | BlockPair, g: InnerFunction) -> bool:
    """Whether pair is the uniform pair of g on its rectangle, cell by cell
    through ``value_matrix``: every cell of the pair's block equals g there
    (UNDEF where g is undefined), and dense(b) is 1/#g^{-1}(b) on the
    b-cells and 0 elsewhere."""
    pair = block_pair(pair)
    cells = value_matrix(g)[np.ix_(pair.i_a, pair.i_b)].tolist()
    if pair.block.tolist() != cells:
        return False
    for b in (0, 1):
        mass = float(Fraction(1, sum(row.count(b) for row in cells)))
        want = [[mass if v == b else 0.0 for v in row] for row in cells]
        if dense(pair, b).tolist() != want:
            return False
    return True


# ---------------------------------------------------------------------------
# restricted composition and the explicit trace-norm bound


def restricted_composition(f: BooleanFunction, g: InnerFunction,
                           pair: DistributionPair | BlockPair
                           ) -> tuple[np.ndarray, np.ndarray]:
    """(values, defined) of the block composition over I_A^n x I_B^n,
    indexed consistently with ``require_materialized`` (block 1 most
    significant)."""
    n = f.n
    limit = boolcube.MAX_MATERIALIZE
    if pair.k_a ** n > limit or pair.k_b ** n > limit:
        raise SizeGuardExceeded("restricted composition exceeds the guard")
    pair = block_pair(pair)
    values = np.zeros((pair.k_a ** n, pair.k_b ** n))
    defined = np.zeros_like(values, dtype=bool)
    cells = value_matrix(g).tolist()
    for r, xs in enumerate(itertools.product(pair.i_a, repeat=n)):
        for c, ys in enumerate(itertools.product(pair.i_b, repeat=n)):
            z = 0
            ok = True
            for i in range(n):
                b = cells[xs[i]][ys[i]]
                if b == UNDEF:
                    ok = False
                    break
                z |= b << i
            if ok:
                defined[r, c] = True
                values[r, c] = f.table[z]
    return values, defined


def trace_norm_certificate(witness: DualWitness, pair: DistributionPair,
                           f: BooleanFunction, g: InnerFunction,
                           epsilon: Fraction, epsilon_prime: Fraction,
                           f_tilde: np.ndarray | None = None) -> float:
    """Lower bound on the trace norm of any entrywise eps'-approximation
    of the restricted composition: |tr(h^T F_tilde)| / ||h|| for h the
    witness matrix of the witness and the pair.

    With an explicit F_tilde the numerator is evaluated directly (entries
    outside the composition's domain are ignored; h vanishes there anyway);
    without one it is replaced by the guaranteed 1 - eps'/eps, which needs
    0 <= eps' < eps to lie in (0, 1].  The norm in the denominator is the
    root of ``exact_opnorm_sq``, exact from the pair's spectrum.
    """
    epsilon_prime = _check_epsilon_prime(epsilon_prime, epsilon)
    if f_tilde is not None:
        mat = require_materialized(witness.q, witness.n, pair)
        values, defined = restricted_composition(f, g, pair)
        if f_tilde.shape != values.shape:
            raise ArityMismatch(f"approximation shape {f_tilde.shape} != {values.shape}")
        slack = float(epsilon_prime) + 1e-12
        if np.abs(np.where(defined, f_tilde - values, 0.0)).max() > slack:
            raise ValueError("approximation violates the entrywise error bound")
        numerator = abs(float(np.where(defined, mat * f_tilde, 0.0).sum()))
    else:
        numerator = 1.0 - float(epsilon_prime) / float(epsilon)
    return numerator / math.sqrt(exact_opnorm_sq(witness, pair))


# ---------------------------------------------------------------------------
# intersection matrices and closed forms


def ip_closed_forms(k: int) -> tuple[float, float]:
    """Reference values for the ip_pair scaled-norm ingredients:
    ||avg|| = 1/sqrt(K(K-1)) and ||half-diff|| = 1/((K-1)sqrt(K))."""
    big_k = 1 << k
    return (1.0 / math.sqrt(big_k * (big_k - 1)),
            1.0 / ((big_k - 1) * math.sqrt(big_k)))


@dataclass(frozen=True, eq=False)
class JohnsonMatrix:
    """0/1 indicator of |x cap y| = s over p-subsets of [k], lex order."""

    k: int
    p: int
    s: int
    subsets: tuple[int, ...]
    matrix: np.ndarray


def johnson_matrix(k: int, p: int, s: int) -> JohnsonMatrix:
    _check_kps(k, p, s)
    subsets = weight_subsets(k, p)
    m = len(subsets)
    mat = np.zeros((m, m), dtype=np.int8)
    for i, x in enumerate(subsets):
        for j, y in enumerate(subsets):
            if (x & y).bit_count() == s:
                mat[i, j] = 1
    return JohnsonMatrix(k, p, s, subsets, mat)


def disj_lambda_diff_closed(k: int, t: int) -> Fraction:
    """Closed-form lambda_{0,t} - lambda_{1,t} for the disjointness pair:
    (-1)^t * (1/M) * [C(k-p-t, p-t)/C(k-p, p)] * t(k-t+1)/p^2."""
    p = k // 3
    m = math.comb(k, p)
    ratio = Fraction(math.comb(k - p - t, p - t), math.comb(k - p, p))
    val = Fraction(1, m) * ratio * Fraction(t * (k - t + 1), p * p)
    return -val if t & 1 else val


# ---------------------------------------------------------------------------
# the approximate degree by the primal sweeps, on the table and on the weights,
# and the table Farkas system at one degree cap


def split_feasible(m: int, points: Sequence[tuple[list[int], int]],
                   epsilon: Fraction) -> list[Fraction] | None:
    """The primal on (basis, value) points: coefficients c_0..c_{m-1} with
    |basis . c - value| <= epsilon at every point, or None if there are
    none.  Each free c_t is split c_t = u_t - v_t with u, v >= 0 before the
    phase-1 solve, two rows per point: the upper bound, then the lower."""
    ub_rows = []
    for basis, value in points:
        row_up = basis + [-b for b in basis]
        ub_rows.append((row_up, value + epsilon))
        ub_rows.append(([-c for c in row_up], epsilon - value))
    x, _ = solve_feasibility(2 * m, ub_rows=ub_rows)
    return None if x is None else [x[t] - x[m + t] for t in range(m)]


def lp_feasible(f: BooleanFunction, epsilon: Fraction, degree_cap: int
                ) -> dict[int, Fraction] | None:
    """The table primal: coefficients alpha_w realizing an
    epsilon-approximation with support |w| <= degree_cap, or None if there
    are none, by ``split_feasible`` over the characters chi_w."""
    epsilon = _check_epsilon(epsilon)
    _check_arity(f.n)
    if not 0 <= degree_cap <= f.n:
        raise ValueError(f"degree cap must lie in [0, {f.n}]")
    monos = monomials_up_to(f.n, degree_cap)
    coeffs = split_feasible(len(monos), _table_points(f, degree_cap), epsilon)
    return None if coeffs is None else dict(zip(monos, coeffs))


def dual_system_witness(f: BooleanFunction, epsilon: Fraction, degree_cap: int
                        ) -> tuple[dict[int, Fraction] | None, list[Fraction] | None]:
    """``approxdeg._farkas`` on the table against support |w| <= degree_cap:
    an unnormalized q orthogonal to all chi_w, |w| <= degree_cap, with
    q.f >= 1 + eps*||q||_1, as (q, None), or, when there is none, (None, P)
    with P(x) within eps of f(x) at every input x and spanned by the chi_w.
    """
    epsilon = _check_epsilon(epsilon)
    _check_arity(f.n)
    raw, poly = _farkas(_table_points(f, degree_cap), epsilon)
    return (None if raw is None else {x: v for x, v in enumerate(raw) if v}), poly


def farkas_only(monkeypatch) -> list[tuple[int, int]]:
    """Patch approxdeg's ``solve_feasibility`` to fail the test on any
    system but a Farkas alternative (one certificate row, right-hand side
    -1, after the orthogonality rows), and record the (columns, rows) of
    each system it solves."""
    solves = []

    def farkas(n_vars, eq_rows=(), ub_rows=()):
        assert len(ub_rows) == 1 and ub_rows[0][1] == -1, "a primal system was solved"
        solves.append((n_vars, len(eq_rows) + 1))
        return solve_feasibility(n_vars, eq_rows=eq_rows, ub_rows=ub_rows)

    monkeypatch.setattr(approxdeg, "solve_feasibility", farkas)
    return solves


def table_solves(n: int, degree: int) -> list[tuple[int, int]]:
    """The (columns, rows) ``farkas_only`` records for the Farkas sweep on
    the 2^n inputs up to degree d: D = 0..min(d, n-1), two columns per
    input and one row per character of degree at most D plus the
    certificate row.  From n = 2 on, 2^(n+1) columns tell a table system
    from a weight system's 2(n+1)."""
    return [(2 << n, len(monomials_up_to(n, cap)) + 1) for cap in range(min(degree + 1, n))]


def weight_solves(n: int, degree: int) -> list[tuple[int, int]]:
    """The (columns, rows) ``farkas_only`` records for the Farkas sweep on
    the n+1 weights up to degree d: D = 0..min(d, n-1), two columns per
    weight and D+1 binomial rows plus the certificate row."""
    return [(2 * (n + 1), cap + 2) for cap in range(min(degree + 1, n))]


def primal_sweep_result(f: BooleanFunction, epsilon: Fraction) -> ApproxDegreeResult:
    """``approx_degree`` by sweeping the primal over D = 0, 1, ...: the
    coefficients at the first D where ``lp_feasible`` has a solution."""
    epsilon = Fraction(epsilon)
    for degree in range(f.n + 1):
        coeffs = lp_feasible(f, epsilon, degree)
        if coeffs is not None:
            return ApproxDegreeResult(epsilon, degree, coeffs)
    raise AssertionError("the primal at D = n always interpolates")


def weight_primal_sweep(values: Sequence[int], epsilon: Fraction) -> list[Fraction]:
    """Coefficients c_0..c_d at the least degree d with
    |sum_j c_j C(k, j) - values[k]| <= eps at every weight k = 0..n: the
    degree of the symmetric function whose value at weight k is values[k].
    ``split_feasible`` is swept over D = 0..n-1 on the weights; at d = n the
    coefficients are the forward differences of values, whose polynomial is
    values itself."""
    epsilon = Fraction(epsilon)
    n = len(values) - 1
    for degree in range(n):
        coeffs = split_feasible(degree + 1, _weight_points(values, degree), epsilon)
        if coeffs is not None:
            return coeffs
    return [Fraction(sum((-1) ** (j - i) * math.comb(j, i) * values[i]
                         for i in range(j + 1))) for j in range(n + 1)]


# ---------------------------------------------------------------------------
# the Paturi ratio of a symmetric function


def paturi_check(f: BooleanFunction, epsilon: Fraction) -> float:
    """Ratio deg~_eps(f) / sqrt(n*(ell0+ell1)) for symmetric f."""
    profile = boolcube.symmetric_profile(f)
    flips = profile.ell0 + profile.ell1
    if flips == 0:
        raise ValueError("degenerate profile: ell0 + ell1 = 0")
    degree = approx_degree(f, epsilon).degree
    return degree / math.sqrt(f.n * flips)


# ---------------------------------------------------------------------------
# the padding identity, point by point


def enumerated_identity_check(plan: ReductionPlan, profile: SymmetricProfile) -> bool:
    """Exhaustively verify that composing the restricted source with
    disjointness equals the AND-composition of f on the padded inputs,
    f symmetric with weight profile `profile`.

    Every point of the restricted domain is enumerated; both sides are read
    off the profile by weight, the source at |z| + ones_pad and f at
    |x AND y|.  Raises before evaluating anything if a pad count is
    negative or the plan shape is unusable; raises SizeGuardExceeded when
    the restricted domain is too large to enumerate.
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
    p = k // 3
    subsets = weight_subsets(k, p)
    dom_pairs = [(a, b) for a in subsets for b in subsets
                 if (a & b).bit_count() <= 1]
    if len(dom_pairs) ** blocks > boolcube.MAX_MATERIALIZE ** 2:
        raise SizeGuardExceeded(
            f"{len(dom_pairs)}^{blocks} domain points exceed the guard")
    values = profile.values
    source = values[plan.ones_pad:plan.ones_pad + blocks + 1]
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
        if source[z.bit_count()] != values[(x & y).bit_count()]:
            return False
    return True


# ---------------------------------------------------------------------------
# protocol simulations, one subprotocol call at a time


def tree_depth(tree: DecisionTree) -> int:
    """The longest root-to-leaf query path of a decision tree."""
    def depth(node: Node | Leaf) -> int:
        if isinstance(node, Leaf):
            return 0
        return 1 + max(depth(node.low), depth(node.high))
    return depth(tree.root)


def tree_evaluate(tree: DecisionTree, x: int) -> int:
    """The leaf value a decision tree reaches on input x (bit i - 1 is x_i)."""
    node = tree.root
    while isinstance(node, Node):
        node = node.high if (x >> (node.var - 1)) & 1 else node.low
    return node.value


@dataclass
class PerCallLedger:
    """A protocol run's charges with one ``(label, bits)`` entry per call."""

    bits_sent_alice: int = 0
    bits_sent_bob: int = 0
    calls: list[tuple[str, int]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.bits_sent_alice + self.bits_sent_bob + sum(c for _, c in self.calls)


def per_call_bcw(tree: DecisionTree, g: InnerFunction, g_protocol_cost: int,
                 repetitions: int, x: int, y: int, inject_error: float = 0.0,
                 seed: int | None = None) -> tuple[int, PerCallLedger]:
    """``compile_bcw(...).run`` on the blocks of x and y, read off
    ``value_matrix(g)``, voting call by call."""
    k, cells = g.k, value_matrix(g).tolist()
    mask = (1 << k) - 1
    rng = random.Random(seed)
    ledger = PerCallLedger()
    node = tree.root
    while isinstance(node, Node):
        i = node.var
        true_bit = cells[(x >> ((i - 1) * k)) & mask][(y >> ((i - 1) * k)) & mask]
        votes = 0
        for _ in range(repetitions):
            bit = true_bit
            if inject_error > 0.0 and rng.random() < inject_error:
                bit ^= 1
            votes += bit
            ledger.calls.append((f"g@{i}", g_protocol_cost))
        node = node.high if 2 * votes > repetitions else node.low
    return node.value, ledger


def per_call_symand(profile: SymmetricProfile, x: int, y: int,
                    cfg: HamOracleConfig = HamOracleConfig(),
                    seed: int | None = None) -> tuple[int, PerCallLedger]:
    """``compile_symand(...).run`` on valid arguments, voting call by call."""
    n = profile.n
    rng = random.Random(seed)
    ledger = PerCallLedger()
    values = profile.values
    flip = values[0] == 1
    if flip:
        values = tuple(1 - v for v in values)
        ledger.notes.append("negated: f is 1 on the low plateau")
    ell1 = profile.ell1

    def out(bit: int) -> tuple[int, PerCallLedger]:
        return (bit ^ 1 if flip else bit), ledger

    if ell1 == 0:
        ledger.notes.append("constant after orientation")
        return out(values[0])
    ledger.bits_sent_alice += 1
    ledger.bits_sent_bob += 1
    if n - x.bit_count() >= ell1 or n - y.bit_count() >= ell1:
        ledger.notes.append("threshold early exit")
        return out(0)
    header = za_header_bits(ell1)
    alt = math.ceil(math.log2(max(ell1, 2)))
    if header != alt:
        ledger.notes.append(f"header charged {header} bits (tight encoding {alt})")
    ledger.bits_sent_alice += header
    delta_cap = 2 * (ell1 - 1)
    reps = repetition_schedule(delta_cap)
    true_delta = (x ^ y).bit_count()
    lo, hi = 0, delta_cap
    while lo < hi:
        mid = (lo + hi + 1) // 2
        votes = 0
        for _ in range(reps):
            answer = 1 if true_delta >= mid else 0
            if cfg.error_prob > 0.0 and rng.random() < cfg.error_prob:
                answer ^= 1
            votes += answer
            ledger.calls.append((f"ham_{mid}", cfg.cost(mid)))
        if 2 * votes > reps:
            lo = mid
        else:
            hi = mid - 1
    weight = min(max((x.bit_count() + y.bit_count() - lo) // 2, 0), n)
    ledger.bits_sent_bob += 1
    return out(values[weight])


def list_sampled_inputs(g: InnerFunction, n: int, trials: int,
                        seed: int) -> list[tuple[int, int, int]]:
    """The ``(x, y, z)`` inputs ``simulate --protocol bcw`` draws for n blocks,
    choosing each block from a list of g's defined cells."""
    rng = random.Random(seed)
    side, table = 1 << g.k, value_matrix(g).tolist()
    cells = [a * side + b for a, b in domain(g)]
    inputs = []
    for _ in range(trials):
        x = y = z = 0
        for i in range(n):
            a, b = divmod(rng.choice(cells), side)
            bit = table[a][b]
            x |= a << (i * g.k)
            y |= b << (i * g.k)
            z |= bit << i
        inputs.append((x, y, z))
    return inputs


# ---------------------------------------------------------------------------
# simulate output, one dict per trial line


def sampled_dense_input(rng: random.Random, n: int, ell1: int) -> int:
    """``protocols.dense_input`` drawing its zero positions with
    ``rng.sample`` even when there are none."""
    zeros = rng.randrange(max(ell1, 1))
    x = (1 << n) - 1
    for pos in rng.sample(range(n), zeros):
        x &= ~(1 << pos)
    return x


def dict_trial_line(t: int, x: int, y: int, out: int, expected: int,
                    ledger: PerCallLedger) -> str:
    """One trial line of ``simulate``: a dict serialised with sorted keys."""
    return json.dumps({
        "trial": t, "x": x, "y": y, "output": out, "expected": expected,
        "correct": out == expected,
        "bits_alice": ledger.bits_sent_alice,
        "bits_bob": ledger.bits_sent_bob,
        "subprotocol_bits": sum(c for _, c in ledger.calls),
        "subprotocol_count": len(ledger.calls),
        "total_bits": ledger.total,
        "notes": list(ledger.notes),
    }, sort_keys=True) + "\n"


def dict_simulate_text(argv: list[str]) -> str:
    """Stdout of ``blockcomp simulate`` with the arguments ``argv``: the same
    trials through the per-call protocol loops, one fresh run and ledger per
    trial, bcw inputs drawn by ``list_sampled_inputs``, symand inputs by
    ``sampled_dense_input`` or ``randrange``, and every line a dict
    serialised with sorted keys."""
    args = cli.build_parser().parse_args(["simulate", *argv])
    trials = []
    if args.protocol == "bcw":
        f = cli.load_function(args.f)
        g = cli.load_inner(args.g) if args.g else cli._inner_for(args.g_family, args.k)
        tree = optimal_decision_tree(f)
        inputs = list_sampled_inputs(g, f.n, args.trials, args.seed)
        for t, (x, y, z) in enumerate(inputs):
            out, ledger = per_call_bcw(
                tree, g, args.g_cost, args.repetitions, x, y,
                inject_error=args.inject_error, seed=args.seed * 1_000_003 + t)
            trials.append((t, x, y, out, f.table[z], ledger))
    else:
        profile = cli.load_profile(args.f)
        cfg = HamOracleConfig(c_ham=args.c_ham, error_prob=args.inject_error)
        rng = random.Random(args.seed)
        for t in range(args.trials):
            if args.dense:
                x = sampled_dense_input(rng, profile.n, profile.ell1)
                y = sampled_dense_input(rng, profile.n, profile.ell1)
            else:
                x, y = rng.randrange(1 << profile.n), rng.randrange(1 << profile.n)
            out, ledger = per_call_symand(profile, x, y, cfg,
                                          seed=args.seed * 1_000_003 + t)
            trials.append((t, x, y, out, profile.values[(x & y).bit_count()], ledger))
    errors = sum(out != expected for _, _, _, out, expected, _ in trials)
    summary = {"summary": True, "trials": args.trials, "errors": errors,
               "error_rate": errors / args.trials,
               "max_total_bits": max(ledger.total for *_, ledger in trials)}
    return "".join(dict_trial_line(*trial) for trial in trials) \
        + json.dumps(summary, sort_keys=True) + "\n"

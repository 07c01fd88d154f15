"""Exact phase-1 simplex over rationals.

Decides feasibility of {x >= 0 : A_eq x = b_eq, A_ub x <= b_ub} exactly,
so callers can certify strict (in)equalities with zero tolerance.
Pivoting uses Bland's rule, which cannot cycle; an iteration cap guards
against implementation bugs.

A feasible system returns a basic solution x.  An infeasible one ends
phase 1 with artificial mass mu > 0 and returns its Farkas certificate:
the final objective row's reduced costs over the variable columns,
divided by mu.  With y the final simplex multipliers (y.b = mu), entry j
is -y.A_j / mu, and phase 1 stops only when every reduced cost is >= 0:
so y.A <= 0 < y.b, Farkas' proof that no x >= 0 solves the system.

Each row, the phase-1 objective included, is a list of ints over one
positive denominator; a pivot updates a row only where the pivot row is
nonzero, then reduces it by one gcd.  Bland's path is that of a Fraction
tableau: a positive denominator keeps each entry's sign, and a row's ratio
rhs_i/a_i is the ratio of its ints.  Artificial columns are not stored (no
decision reads them), but their indices still break ratio-test ties.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

MAX_PIVOTS = 1_000_000


class PivotLimitExceeded(RuntimeError):
    pass


class Feasibility(NamedTuple):
    """Exactly one field is set: a feasible nonnegative x, or the Farkas
    certificate of an infeasible system (see the module docstring)."""

    x: list[Fraction] | None
    certificate: list[Fraction] | None


def solve_feasibility(
    n_vars: int,
    eq_rows: Sequence[tuple[Sequence[Fraction], Fraction]] = (),
    ub_rows: Sequence[tuple[Sequence[Fraction], Fraction]] = (),
) -> Feasibility:
    """Solve phase 1 for a feasible nonnegative x or, failing that, the
    certificate.  Coefficients and right-hand sides are ints or Fractions."""
    # columns: [vars | slacks | rhs]; row i stands for rows[i] / dens[i]
    n_slack = len(ub_rows)
    rows: list[list[int]] = []
    dens: list[int] = []
    basis: list[int] = []
    art_rows: list[int] = []
    for i, (coeffs, rhs) in enumerate([*ub_rows, *eq_rows]):
        den = math.lcm(rhs.denominator, *(c.denominator for c in coeffs))
        row = [c.numerator * (den // c.denominator) for c in coeffs]
        row += [0] * n_slack
        row.append(rhs.numerator * (den // rhs.denominator))
        flip = rhs < 0
        if flip:
            row = [-v for v in row]
        if i < n_slack:
            row[n_vars + i] = -den if flip else den
        if flip or i >= n_slack:
            basis.append(n_vars + n_slack + len(art_rows))
            art_rows.append(i)
        else:
            basis.append(n_vars + i)
        rows.append(row)
        dens.append(den)

    # phase-1 objective: minus the sum of the artificial rows, so reduced
    # costs over the basic columns are zero
    obj_den = math.lcm(*(dens[i] for i in art_rows))
    obj = [0] * (n_vars + n_slack + 1)
    for i in art_rows:
        scale = obj_den // dens[i]
        obj = [o - scale * v for o, v in zip(obj, rows[i])]

    enter_limit = n_vars + n_slack  # artificials never re-enter
    for pivots in range(MAX_PIVOTS + 1):
        enter = -1
        for j in range(enter_limit):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        if pivots == MAX_PIVOTS:
            raise PivotLimitExceeded(f"no convergence in {MAX_PIVOTS} pivots")
        # Bland's ratio test: least rhs_i/a_i over a_i > 0, ties to the
        # smallest basic column; a row's denominator cancels in its ratio
        leave = -1
        best_rhs, best_a = 0, 1
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                cross = row[-1] * best_a - best_rhs * a
                if leave < 0 or cross < 0 or (cross == 0 and basis[i] < basis[leave]):
                    leave, best_rhs, best_a = i, row[-1], a
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded; malformed system")
        obj, obj_den = _pivot(rows, dens, obj, obj_den, leave, enter)
        basis[leave] = enter

    if obj[-1] != 0:  # residual artificial mass mu = -obj[-1] / obj_den
        return Feasibility(None, [Fraction(v, -obj[-1]) for v in obj[:n_vars]])
    x = [Fraction(0)] * n_vars
    for i, b in enumerate(basis):
        if b < n_vars:
            x[b] = Fraction(rows[i][-1], dens[i])
    return Feasibility(x, None)


def _pivot(rows: list[list[int]], dens: list[int], obj: list[int], obj_den: int,
           r: int, c: int) -> tuple[list[int], int]:
    """Scale row r so its column-c entry is 1 and clear column c from the
    other rows and from the objective, which is returned."""
    prow = rows[r]
    g = math.gcd(*prow)  # prow[c] > 0 becomes the row's denominator
    if g > 1:
        prow = rows[r] = [v // g for v in prow]
    pden = dens[r] = prow[c]
    nonzero = [(j, v) for j, v in enumerate(prow) if v]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            rows[i], dens[i] = _eliminate(row, dens[i], nonzero, pden, c)
    if obj[c]:
        return _eliminate(obj, obj_den, nonzero, pden, c)
    return obj, obj_den


def _eliminate(row: list[int], den: int, nonzero: list[tuple[int, int]],
               pden: int, c: int) -> tuple[list[int], int]:
    """row/den - (row[c]/den) * prow/pden, given prow[c] == pden > 0 and
    prow's nonzero (column, entry) pairs; in place when pden divides row[c]."""
    h = math.gcd(pden, row[c])
    scale, factor = pden // h, row[c] // h
    if scale != 1:
        row = [v * scale for v in row]
        den *= scale
    for j, p in nonzero:
        row[j] -= factor * p
    g = math.gcd(den, *row)
    if g > 1:
        row = [v // g for v in row]
        den //= g
    return row, den

"""The integer-row simplex against a Fraction tableau running the same
Bland's rule: same verdict, same pivots, same x or Farkas certificate,
same CLI bytes."""

from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from blockcomp import approxdeg, simplex
from blockcomp.boolcube import BooleanFunction
from blockcomp.cli import main
from blockcomp.simplex import PivotLimitExceeded, solve_feasibility

ZERO = Fraction(0)
ONE = Fraction(1)


def fraction_simplex(n_vars, eq_rows=(), ub_rows=(), pivots=None):
    """Phase-1 simplex with a dense Fraction tableau and Bland's rule.

    The reference for solve_feasibility, with its (x, certificate) result:
    the certificate is the final phase-1 row over the variable columns
    divided by the artificial mass mu = -obj[-1].  Appends each (row,
    column) pivot to `pivots` when given.
    """
    prepared = []
    n_slack = len(ub_rows)
    slack_no = 0
    for coeffs, rhs in ub_rows:
        row = [Fraction(c) for c in coeffs]
        rhs = Fraction(rhs)
        slack = ONE
        if rhs < 0:
            row = [-c for c in row]
            rhs, slack = -rhs, -ONE
        prepared.append((row, rhs, slack_no, slack == -ONE))
        slack_no += 1
    for coeffs, rhs in eq_rows:
        row = [Fraction(c) for c in coeffs]
        rhs = Fraction(rhs)
        if rhs < 0:
            row = [-c for c in row]
            rhs = -rhs
        prepared.append((row, rhs, -1, True))

    n_art = sum(1 for _, _, _, need in prepared if need)
    width = n_vars + n_slack + n_art + 1
    rows = []
    basis = []
    obj = [ZERO] * width
    art_no = 0
    for row, rhs, slack_idx, needs_art in prepared:
        full = row + [ZERO] * (n_slack + n_art) + [rhs]
        if slack_idx >= 0:
            full[n_vars + slack_idx] = ONE if not needs_art else -ONE
        if needs_art:
            col = n_vars + n_slack + art_no
            art_no += 1
            full[col] = ONE
            basis.append(col)
            obj = [o - v for o, v in zip(obj, full)]
        else:
            basis.append(n_vars + slack_idx)
        rows.append(full)

    enter_limit = n_vars + n_slack
    while True:
        enter = -1
        for j in range(enter_limit):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best_ratio = ZERO
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if leave < 0 or ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < basis[leave]
                ):
                    leave, best_ratio = i, ratio
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded; malformed system")
        if pivots is not None:
            pivots.append((leave, enter))
        _fraction_pivot(rows, obj, basis, leave, enter)

    mu = -obj[-1]
    if mu != 0:
        return None, [v / mu for v in obj[:n_vars]]
    x = [ZERO] * n_vars
    for i, b in enumerate(basis):
        if b < n_vars:
            x[b] = rows[i][-1]
    return x, None


def _fraction_pivot(rows, obj, basis, r, c):
    prow = rows[r]
    piv = prow[c]
    if piv != 1:
        prow = rows[r] = [v / piv for v in prow]
    for i, row in enumerate(rows):
        if i == r:
            continue
        factor = row[c]
        if factor:
            rows[i] = [v - factor * p for v, p in zip(row, prow)]
    factor = obj[c]
    if factor:
        obj[:] = [v - factor * p for v, p in zip(obj, prow)]
    basis[r] = c


def recorded_solve(n_vars, eq_rows, ub_rows):
    """solve_feasibility's result and its (row, column) pivots."""
    pivots = []
    real = simplex._pivot

    def recording(rows, dens, obj, obj_den, r, c):
        pivots.append((r, c))
        return real(rows, dens, obj, obj_den, r, c)

    with patch.object(simplex, "_pivot", recording):
        return solve_feasibility(n_vars, eq_rows, ub_rows), pivots


RATIONALS = st.one_of(
    st.integers(-2, 2),
    st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4, 6])),
)


@st.composite
def systems(draw):
    n_vars = draw(st.integers(1, 4))
    row = st.tuples(st.lists(RATIONALS, min_size=n_vars, max_size=n_vars), RATIONALS)
    return n_vars, draw(st.lists(row, max_size=3)), draw(st.lists(row, max_size=4))


# -x1 <= -1, x1 <= 1: both rows tie at ratio 1 for the first pivot, and
# the tie goes to row 1, whose basic slack precedes row 0's artificial
TIED = (1, [], [([-1], -1), ([1], 1)])
# x1 + x2 <= 1/2, -x1 <= -1 (x1 >= 1)
INFEASIBLE = (2, [], [([Fraction(1), 1], Fraction(1, 2)), ([-1, 0], -1)])


class TestAgainstFractionTableau:
    @given(systems())
    @example(TIED)
    @example(INFEASIBLE)
    @settings(max_examples=300, deadline=None)
    def test_same_pivots_and_solution(self, system):
        n_vars, eq_rows, ub_rows = system
        oracle_pivots = []
        want = fraction_simplex(n_vars, eq_rows, ub_rows, oracle_pivots)
        got, pivots = recorded_solve(n_vars, eq_rows, ub_rows)
        assert pivots == oracle_pivots
        assert got == want
        x, certificate = got
        assert (x is None) != (certificate is None)
        assert all(type(v) is Fraction for v in x or certificate)
        if certificate is not None:
            assert len(certificate) == n_vars
            assert all(r >= 0 for r in certificate)

    def test_examples_exercise_tie_and_infeasibility(self):
        # INFEASIBLE stops at x1 = 1/2 with mu = 1/2 left: the multipliers
        # y = (-1, 1) on its rows x1 + x2 <= 1/2 and x1 >= 1 give y.b = mu
        # and -y.A / mu = (0, 2)
        assert fraction_simplex(*INFEASIBLE) == (None, [0, 2])
        result, pivots = recorded_solve(*TIED)
        assert result.x == [1]
        assert pivots[0] == (1, 0)

    @pytest.mark.parametrize("epsilon", [Fraction(1, 3), Fraction(1, 5)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_small_function(self, n, epsilon):
        """The table primal and the table Farkas system, which returns the
        certificate's approximation when the system is infeasible,
        agree with the oracle on every function of arity n at every degree
        cap for n <= 2.  For n = 3, the Farkas system agrees at the two
        caps the CLI reads (the degree, whose certificate gives approxdeg
        its polynomial, and one below it, where witness takes its q), and
        the primal, which the library no longer solves, is feasible at the
        degree."""

        def both(fn, f, cap):
            got = fn(f, epsilon, cap)
            with patch.object(approxdeg, "solve_feasibility", fraction_simplex), \
                    patch.object(oracles, "solve_feasibility", fraction_simplex):
                assert fn(f, epsilon, cap) == got
            return got

        for bits in range(1 << (1 << n)):
            f = BooleanFunction(n, tuple((bits >> x) & 1 for x in range(1 << n)))
            if n <= 2:
                for cap in range(n + 1):
                    both(oracles.lp_feasible, f, cap)
                    both(oracles.dual_system_witness, f, cap)
                continue
            degree = approxdeg.approx_degree(f, epsilon).degree
            assert oracles.lp_feasible(f, epsilon, degree) is not None
            if degree < n:
                assert both(oracles.dual_system_witness, f, degree)[1] is not None
            if degree:
                assert both(oracles.dual_system_witness, f, degree - 1)[0] is not None


def write_profile(tmp_path, name, profile):
    path = tmp_path / f"{name}.json"
    path.write_text('{"profile": %s}' % profile)
    return str(path)


class TestCliBytes:
    # the degree benchmark's subcommand for each input; MAJ_5's best
    # degree-1 error is exactly 1/3
    @pytest.mark.parametrize("name, profile, command", [
        ("OR_4", [0, 1, 1, 1, 1], "witness"),
        ("PAR_4", [0, 1, 0, 1, 0], "approxdeg"),
        ("THR3_4", [0, 0, 0, 1, 1], "approxdeg"),
        ("MAJ_5", [0, 0, 0, 1, 1, 1], "witness"),
    ])
    def test_stdout_matches_fraction_tableau(self, capsys, monkeypatch, tmp_path,
                                             name, profile, command):
        argv = [command, "--f", write_profile(tmp_path, name, profile)]
        assert main(argv) == 0
        got = capsys.readouterr().out
        monkeypatch.setattr(approxdeg, "solve_feasibility", fraction_simplex)
        assert main(argv) == 0
        assert capsys.readouterr().out == got


class TestPivotCap:
    def test_limit_raises(self, monkeypatch):
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 0)
        # x1 >= 1 needs one pivot to drive its artificial out
        with pytest.raises(PivotLimitExceeded, match="0 pivots"):
            solve_feasibility(1, ub_rows=[([-1], -1)])

    def test_no_pivot_needed_under_cap_0(self, monkeypatch):
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 0)
        assert solve_feasibility(3).x == [ZERO, ZERO, ZERO]

    def test_cap_allows_exactly_cap_pivots(self, monkeypatch):
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 1)
        assert solve_feasibility(1, ub_rows=[([-1], -1)]).x == [ONE]

    def test_cli_exits_3(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 0)
        code = main(["approxdeg", "--f", write_profile(tmp_path, "OR_2", [0, 1, 1])])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("internal error:")
        assert "0 pivots" in captured.err

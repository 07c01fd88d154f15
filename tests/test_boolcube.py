import json
import tracemalloc
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcomp import boolcube
from blockcomp.boolcube import (BooleanFunction, UNDEF, and_inner, disj_le1_inner,
                                ell0_of_profile, ell1_of_profile, from_profile,
                                function_from_dict, inner_from_dict, ip_inner,
                                profile_from_values, spectrum_of_values,
                                symmetric_profile, walsh_transform, weight_subsets)
from blockcomp.errors import ArityMismatch, NotSymmetric, SizeGuardExceeded
from blockcomp.specdisc import disj_pair
from oracles import (ComposedFunction, and_function, block_compose, block_pair,
                     constant_function, domain, inner_of_rows, inner_to_dict, is_total,
                     loop_disj_le1_inner, negate, or_function, pad_restrict,
                     parity_function, projection, random_inner, restrict_rows,
                     value_matrix)


# a k = 2 table with undefined cells in the middle of rows
MID_ROW_ROWS = [[0, UNDEF, 1, UNDEF], [UNDEF, UNDEF, UNDEF, UNDEF],
                [1, 1, UNDEF, 0], [UNDEF, 0, 1, UNDEF]]


def random_function(n, seed):
    rng = np.random.default_rng(seed)
    return BooleanFunction(n, tuple(int(b) for b in rng.integers(0, 2, 1 << n)))


class TestBooleanFunction:
    def test_table_length_validated(self):
        with pytest.raises(ValueError):
            BooleanFunction(2, (0, 1, 0))

    def test_evaluate_examples(self):
        assert or_function(2).table[0b00] == 0
        assert or_function(2).table[0b01] == 1
        assert parity_function(3).table[0b111] == 1

    def test_bit_convention(self):
        # x_1 is the least-significant bit of the index
        f = projection(2, 1)
        assert f.table[0b01] == 1
        assert f.table[0b10] == 0

    def test_negate(self):
        f = or_function(3)
        assert all(negate(f).table[x] == 1 - f.table[x] for x in range(8))


class TestFourier:
    """spectrum_of_values on the truth table of a 0/1-valued function."""

    def test_constant_zero_empty(self):
        f = constant_function(3, 0)
        assert spectrum_of_values(3, dict(enumerate(f.table))).coeffs == {}

    def test_single_variable(self):
        sp = spectrum_of_values(1, dict(enumerate(projection(1, 1).table)))
        assert sp.coeffs == {0: Fraction(1, 2), 1: Fraction(-1, 2)}

    def test_parity_two(self):
        sp = spectrum_of_values(2, dict(enumerate(parity_function(2).table)))
        assert sp.coeffs == {0: Fraction(1, 2), 3: Fraction(-1, 2)}

    @given(st.integers(1, 5), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_inversion_and_parseval(self, n, seed):
        """The transform inverts exactly in rationals: the unnormalized
        Walsh transform of the coefficients is the table."""
        f = random_function(n, seed)
        sp = spectrum_of_values(n, dict(enumerate(f.table)))
        dense = [sp.coeffs.get(w, Fraction(0)) for w in range(1 << n)]
        assert walsh_transform(dense) == list(f.table)
        lhs = sum((c * c for c in sp.coeffs.values()), Fraction(0))
        rhs = Fraction(sum(f.table), 1 << n)
        assert lhs == rhs

    def test_min_degree(self):
        chi = {x: Fraction((-1) ** x.bit_count()) for x in range(8)}
        assert spectrum_of_values(3, chi).min_degree() == 3
        assert spectrum_of_values(2, {x: 1 for x in range(4)}).min_degree() == 0
        assert spectrum_of_values(2, {}).min_degree() is None


class TestSymmetricProfile:
    def test_or4(self):
        p = symmetric_profile(or_function(4))
        assert (p.ell0, p.ell1) == (1, 0)

    def test_and4(self):
        p = symmetric_profile(and_function(4))
        assert (p.ell0, p.ell1) == (0, 1)

    def test_constant(self):
        p = symmetric_profile(constant_function(4, 1))
        assert (p.ell0, p.ell1) == (0, 0)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            symmetric_profile(projection(2, 1))

    def test_range_invariants(self):
        for n in range(1, 7):
            for seed in range(5):
                rng = np.random.default_rng(seed * 100 + n)
                prof = [int(b) for b in rng.integers(0, 2, n + 1)]
                f = from_profile(prof)
                p = symmetric_profile(f)
                assert 0 <= 2 * p.ell0 <= n
                assert 0 <= 2 * p.ell1 <= n
                assert list(p.values) == prof

    def test_profile_vector_vs_table(self):
        for n in range(1, 7):
            f = from_profile([m % 2 for m in range(n + 1)])
            p = symmetric_profile(f)
            assert p.ell0 == ell0_of_profile(p.values)
            assert p.ell1 == ell1_of_profile(p.values)


class TestProfileFromValues:
    def test_matches_table_route(self):
        for n in range(1, 7):
            for bits in range(1 << (n + 1)):
                values = [(bits >> m) & 1 for m in range(n + 1)]
                assert profile_from_values(values) == \
                    symmetric_profile(from_profile(values))

    @pytest.mark.parametrize("values", ["0011", [0, 2, 1], [1], [], [0, True],
                                        [0, 1.0], (0, "1"), None, 3])
    def test_malformed_rejected(self, values):
        with pytest.raises(ValueError):
            profile_from_values(values)
        with pytest.raises(ValueError):
            from_profile(values)


class TestPadRestrict:
    def test_zeros_only(self):
        assert pad_restrict(or_function(4), 0, 2).table == or_function(2).table

    def test_ones_only(self):
        assert pad_restrict(and_function(4), 2, 0).table == and_function(2).table

    def test_parity_flip(self):
        got = pad_restrict(parity_function(3), 1, 0)
        assert got.table == negate(parity_function(2)).table

    def test_arity_underflow(self):
        with pytest.raises(ArityMismatch):
            pad_restrict(or_function(3), 2, 1)

    def test_symmetric_consistency(self):
        # restricting a symmetric function commutes with profile slicing
        for n in (5, 8):
            f = from_profile([(m * m + 1) % 2 for m in range(n + 1)])
            for ones in range(0, 3):
                for zeros in range(0, 3):
                    if n - ones - zeros < 1:
                        continue
                    sub = pad_restrict(f, ones, zeros)
                    prof = symmetric_profile(sub)
                    base = symmetric_profile(f)
                    expect = [base.values[m + ones] for m in range(sub.n + 1)]
                    assert list(prof.values) == expect


class TestInnerFunctions:
    def test_and_inner(self):
        g = and_inner()
        assert g.k == 1
        assert value_matrix(g).tolist() == [[0, 0], [0, 1]]

    def test_ip_rows_balanced(self):
        g = ip_inner(3)
        for x in range(1, 8):
            assert value_matrix(g)[x].sum() == 4

    def test_restrict_rows(self):
        g = restrict_rows(ip_inner(2), tuple(range(1, 4)))
        assert value_matrix(g)[0, 1] == UNDEF
        assert value_matrix(g)[1, 1] == 1
        assert not is_total(g)
        assert is_total(ip_inner(2))

    def test_weight_subsets_lex(self):
        subs = weight_subsets(4, 2)
        # lexicographic on sorted element lists: {1,2},{1,3},{1,4},{2,3},...
        assert subs == (0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100)
        assert all(s.bit_count() == 2 for s in subs)

    def test_disj_le1(self):
        g = disj_le1_inner(6)
        subs = set(weight_subsets(6, 2))
        table = value_matrix(g)
        for x in range(64):
            for y in range(64):
                v = table[x, y]
                if x not in subs or y not in subs:
                    assert v == UNDEF
                else:
                    inter = (x & y).bit_count()
                    if inter > 1:
                        assert v == UNDEF
                    else:
                        assert v == (1 if inter == 1 else 0)

    @pytest.mark.parametrize("k", [3, 6, 9, 12])
    def test_disj_le1_matches_loop(self, k):
        assert disj_le1_inner(k).values == loop_disj_le1_inner(k).values

    @pytest.mark.parametrize("k", [3, 6, 9])
    def test_disj_block_is_table_block(self, k):
        # the disj pair's rectangle is the p-subsets, on which the table is 0
        # for disjoint, 1 for meeting once and UNDEF for meeting more often
        pair = disj_pair(k)
        subsets = weight_subsets(k, k // 3)
        assert pair.k_a == pair.k_b == len(subsets)
        meets = [[(x & y).bit_count() for y in subsets] for x in subsets]
        assert block_pair(pair).block.tolist() == [[m if m <= 1 else UNDEF for m in row]
                                                   for row in meets]

    @pytest.mark.parametrize("k", [0, 2, 4, 14])
    def test_disj_bad_k(self, k):
        with pytest.raises(ValueError, match="multiple of 3"):
            disj_pair(k)
        with pytest.raises(ValueError, match="multiple of 3"):
            disj_le1_inner(k)

    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_ip_is_parity_of_meet(self, k):
        table = value_matrix(ip_inner(k))
        assert all(table[x, y] == (x & y).bit_count() & 1
                   for x in range(1 << k) for y in range(1 << k))

    def test_table_size_guard(self, monkeypatch):
        with pytest.raises(SizeGuardExceeded):
            ip_inner(13)
        with pytest.raises(SizeGuardExceeded):
            disj_le1_inner(15)
        monkeypatch.setattr(boolcube, "MAX_MATERIALIZE", 8)
        assert len(ip_inner(3).values) == 64
        with pytest.raises(SizeGuardExceeded):
            ip_inner(4)

    @pytest.mark.parametrize("g", [restrict_rows(ip_inner(2), (1, 3)), disj_le1_inner(3),
                                   ip_inner(2), inner_of_rows(2, MID_ROW_ROWS)])
    def test_defined_cells_follow_domain(self, g):
        cells = [divmod(c, 1 << g.k) for c in g.defined_cells()]
        assert cells == list(domain(g))

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_total_cells_are_a_range(self, k):
        assert ip_inner(k).defined_cells() == range(1 << (2 * k))
        partial = restrict_rows(ip_inner(k), (1,))
        assert isinstance(partial.defined_cells(), array)

    def test_values_are_flat_row_major(self):
        for g in (and_inner(), ip_inner(3), disj_le1_inner(6), random_inner(3, 9),
                  restrict_rows(ip_inner(2), (1, 3)), inner_of_rows(2, MID_ROW_ROWS)):
            side = 1 << g.k
            assert isinstance(g.values, array) and g.values.typecode == "b"
            assert len(g.values) == side * side
            table = value_matrix(g)
            for x in range(side):
                for y in range(side):
                    assert table[x, y] == g.values[x * side + y]
            assert inner_from_dict(inner_to_dict(g)).values == g.values

    def test_wrong_cell_count_rejected(self):
        with pytest.raises(ValueError, match="2x2"):
            boolcube.InnerFunction(1, array("b", [0, 1, 1]))

    def test_random_inner_deterministic(self):
        a = random_inner(3, seed=5)
        b = random_inner(3, seed=5)
        assert a.values == b.values
        c = random_inner(3, seed=6)
        assert a.values != c.values


class TestBlockCompose:
    def test_single_block_identity(self):
        f = projection(1, 1)
        g = ip_inner(2)
        big = block_compose(f, g)
        for x in range(4):
            for y in range(4):
                assert big.value(x, y) == value_matrix(g)[x, y]

    def test_parity_and(self):
        big = block_compose(parity_function(2), and_inner())
        assert big.value(0b11, 0b11) == 0
        assert big.value(0b01, 0b01) == 1

    def test_partial_domain_propagates(self):
        g = restrict_rows(ip_inner(2), tuple(range(1, 4)))
        big = block_compose(or_function(2), g)
        assert big.value(0b0001, 0b0101) is None  # second block row 0 undefined
        assert big.value(0b0101, 0b0101) is not None

    def test_guard(self):
        with pytest.raises(SizeGuardExceeded):
            block_compose(parity_function(13), and_inner())

    def test_guard_env_override(self, monkeypatch):
        monkeypatch.setattr(boolcube, "MAX_MATERIALIZE", 16)
        with pytest.raises(SizeGuardExceeded):
            block_compose(parity_function(3), ip_inner(2))

    def test_one_block_reduces_to_g(self):
        """Fixing all blocks but one turns the composition into g, its
        negation, or a constant, and the non-constant cases occur."""
        seen_g = seen_neg = False
        for g in (and_inner(), ip_inner(2)):
            k, cells = g.k, value_matrix(g).tolist()
            for f in (parity_function(2), or_function(2), and_function(3)):
                n = f.n
                context = [(1, 1)] * n  # (1,1) is in dom for both inners
                for i in range(n):
                    maps = {}
                    for a in range(1 << k):
                        for b in range(1 << k):
                            blocks = list(context)
                            blocks[i] = (a, b)
                            x = sum(xa << (j * k) for j, (xa, _) in enumerate(blocks))
                            y = sum(yb << (j * k) for j, (_, yb) in enumerate(blocks))
                            z = 0
                            for j, (xa, yb) in enumerate(blocks):
                                z |= cells[xa][yb] << j
                            maps[(a, b)] = f.table[z]
                    ref = {(a, b): cells[a][b]
                           for a in range(1 << k) for b in range(1 << k)}
                    if maps == ref:
                        seen_g = True
                    elif maps == {ab: 1 - v for ab, v in ref.items()}:
                        seen_neg = True
                    else:
                        assert len(set(maps.values())) == 1
        assert seen_g and seen_neg


HUGE = 1 << 28  # 2^HUGE bits would take 32 MB


def peak_bytes(call):
    """Peak bytes traced while ``call`` runs, and the exception it raises."""
    tracemalloc.start()
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the caller inspects it
        raised = exc
    else:
        raised = None
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, raised


class TestSizeGuards:
    """Every guard on a user-given exponent refuses it before 2^n or 2^k is
    formed, and names the field and its value."""

    @pytest.mark.parametrize("call,kind,message", [
        (lambda: ip_inner(HUGE), SizeGuardExceeded, f"inner table side 2^{HUGE} exceeds"),
        (lambda: disj_le1_inner(3 * (HUGE // 3)), SizeGuardExceeded,
         f"inner table side 2^{3 * (HUGE // 3)} exceeds"),
        (lambda: ip_inner(-1), ValueError, "inner k must be >= 0, got k = -1"),
        (lambda: inner_from_dict({"k": HUGE, "rows": []}), SizeGuardExceeded,
         f"inner table side 2^{HUGE} exceeds"),
        (lambda: inner_from_dict({"k": -1, "rows": []}), ValueError,
         "inner k must be >= 0, got k = -1"),
        (lambda: function_from_dict({"n": HUGE, "bits": "01"}), ValueError,
         f"bits must be a 0/1 string of length 2^n, n = {HUGE}"),
        (lambda: function_from_dict({"n": -1, "bits": "01"}), ValueError,
         "bits must be a 0/1 string of length 2^n, n = -1"),
    ], ids=("ip", "disj", "ip-negative", "inner-file", "inner-file-negative",
            "bits-file", "bits-file-negative"))
    def test_refused_before_any_shift(self, call, kind, message):
        peak, raised = peak_bytes(call)
        assert isinstance(raised, kind)
        assert str(raised).startswith(message)
        assert peak < 1 << 20

    def test_largest_admitted_side(self):
        k = boolcube.MAX_MATERIALIZE.bit_length() - 1
        assert 1 << k == boolcube.MAX_MATERIALIZE
        boolcube._check_table_side(k)
        with pytest.raises(SizeGuardExceeded):
            boolcube._check_table_side(k + 1)


class TestJsonIO:
    def test_function_roundtrip(self):
        f = random_function(3, 11)
        d = {"n": 3, "bits": "".join(str(b) for b in f.table)}
        assert function_from_dict(d).table == f.table

    def test_function_bad_bits(self):
        with pytest.raises(ValueError):
            function_from_dict({"n": 3, "bits": "0110"})

    def test_inner_roundtrip_with_undefined(self):
        g = disj_le1_inner(3)
        d = inner_to_dict(g)
        assert any("u" in row for row in d["rows"])
        back = inner_from_dict(d)
        assert back.values == g.values
        assert json.dumps(d)  # serializable

    def test_composed_function_shape(self):
        big = block_compose(or_function(2), and_inner())
        assert isinstance(big, ComposedFunction)
        assert big.values.shape == (4, 4)
        assert big.values.dtype == np.int8
        assert UNDEF not in big.values  # total inner

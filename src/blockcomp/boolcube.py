"""Boolean functions on the hypercube and two-party inner functions.

Bit convention used everywhere: input bit x_1 is the *least-significant*
bit of a truth-table index, so the index of x = (x_1, ..., x_n) is
sum(x_i << (i-1)).  Blocks of a composed input follow the same order:
block i of an nk-bit input occupies bits (i-1)k .. ik-1 of the integer.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import NotSymmetric, SizeGuardExceeded

MAX_MATERIALIZE = 4096  # per-side dimension cap for dense materializations


# ---------------------------------------------------------------------------
# total Boolean functions


@dataclass(frozen=True)
class BooleanFunction:
    """Total function {0,1}^n -> {0,1} stored as a truth table."""

    n: int
    table: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("arity must be >= 1")
        if len(self.table) != 1 << self.n:
            raise ValueError(f"table length {len(self.table)} != 2^{self.n}")
        if any(b not in (0, 1) for b in self.table):
            raise ValueError("table entries must be 0/1")


def from_predicate(n: int, pred) -> BooleanFunction:
    """Build a function from a predicate on the integer index."""
    return BooleanFunction(n, tuple(1 if pred(x) else 0 for x in range(1 << n)))


def from_profile(profile: Sequence[int]) -> BooleanFunction:
    """Truth table of the symmetric function with weight profile `profile`
    (profile[m] = value at weight m), validated by profile_from_values."""
    values = profile_from_values(profile).values
    return from_predicate(len(values) - 1, lambda x: values[x.bit_count()])


# ---------------------------------------------------------------------------
# Fourier spectra (exact rationals)


@dataclass(frozen=True)
class FourierSpectrum:
    """Exact Fourier coefficients, keyed by the frequency bitmask w.

    Only nonzero coefficients are stored: an absent frequency has
    coefficient 0.
    """

    n: int
    coeffs: dict[int, Fraction]

    def min_degree(self) -> int | None:
        """Smallest |w| carrying a nonzero coefficient, or None if identically 0."""
        if not self.coeffs:
            return None
        return min(w.bit_count() for w in self.coeffs)


def walsh_transform(values: Sequence) -> list:
    """Unnormalized Walsh transform: out[w] = sum_x values[x] * (-1)^(w.x).

    Works over any exact numeric type (int, Fraction).
    """
    out = list(values)
    size = len(out)
    h = 1
    while h < size:
        for base in range(0, size, h << 1):
            for j in range(base, base + h):
                a, b = out[j], out[j + h]
                out[j], out[j + h] = a + b, a - b
        h <<= 1
    return out


def spectrum_of_values(n: int, values: dict[int, Fraction]) -> FourierSpectrum:
    """Spectrum of an arbitrary rational-valued map on the cube."""
    dense = [values.get(x, Fraction(0)) for x in range(1 << n)]
    scale = Fraction(1, 1 << n)
    transformed = walsh_transform(dense)
    coeffs = {w: v * scale for w, v in enumerate(transformed) if v != 0}
    return FourierSpectrum(n, coeffs)


# ---------------------------------------------------------------------------
# symmetric functions and the ell0/ell1 flip parameters


@dataclass(frozen=True)
class SymmetricProfile:
    """Weight profile of a symmetric function plus its flip parameters.

    ell0 is the largest m in [1, n/2] where the profile flips between
    weights m-1 and m (0 if none).  ell1 is the largest n-m over
    m in [ceil(n/2), n-1] where the profile flips between m and m+1
    (0 if none).  For odd n the lower end of the ell1 range is taken
    as ceil(n/2).
    """

    n: int
    values: tuple[int, ...]
    ell0: int
    ell1: int


def profile_from_values(values: Sequence[int]) -> SymmetricProfile:
    """The symmetric function whose value at weight m is values[m].

    Needs n + 1 >= 2 entries, each the int 0 or 1; builds no truth table."""
    if not isinstance(values, (list, tuple)) or len(values) < 2:
        raise ValueError(f"a profile is a list of n + 1 >= 2 values, got {values!r}")
    for m, v in enumerate(values):
        if type(v) is not int or v not in (0, 1):
            raise ValueError(f"profile entries must be 0 or 1, got {v!r} at weight {m}")
    return SymmetricProfile(len(values) - 1, tuple(values), ell0_of_profile(values),
                            ell1_of_profile(values))


def symmetric_profile(f: BooleanFunction) -> SymmetricProfile:
    """Weight profile of f; raises NotSymmetric on any weight-class disagreement.

    Scans the whole 2^n table, so a caller that needs the profile repeatedly
    (a protocol simulation, say) computes it once and passes it down."""
    profile: list[int | None] = [None] * (f.n + 1)
    for x, bit in enumerate(f.table):
        m = x.bit_count()
        if profile[m] is None:
            profile[m] = bit
        elif profile[m] != bit:
            raise NotSymmetric(f"inputs of weight {m} disagree")
    return profile_from_values(profile)  # type: ignore[arg-type]


def ell0_of_profile(values: Sequence[int]) -> int:
    n = len(values) - 1
    flips = [m for m in range(1, n // 2 + 1) if values[m] != values[m - 1]]
    return max(flips, default=0)


def ell1_of_profile(values: Sequence[int]) -> int:
    n = len(values) - 1
    lo = (n + 1) // 2
    flips = [n - m for m in range(lo, n) if values[m] != values[m + 1]]
    return max(flips, default=0)


# ---------------------------------------------------------------------------
# inner two-party functions (possibly partial)

UNDEF = -1  # sentinel cell value
_UNDEF_BYTE = b"\xff"  # UNDEF as an array('b') byte
_DEFINED = re.compile(rb"[^\xff]")
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


@dataclass(frozen=True, eq=False)
class InnerFunction:
    """Two-party function on {0,1}^k x {0,1}^k.  values holds its 2^k x 2^k
    table row-major as one flat array('b'): cell x * 2^k + y is g(x, y), or
    UNDEF where g is undefined."""

    k: int
    values: array

    def __post_init__(self):
        side = 1 << self.k
        if len(self.values) != side * side:
            raise ValueError(f"value table must hold {side}x{side} cells")

    def defined_cells(self) -> Sequence[int]:
        """Indices x * 2^k + y of the domain, in row-major order: a range
        when g is total, else an index array built from the rows that hold
        a defined cell."""
        raw = self.values.tobytes()
        if _UNDEF_BYTE not in raw:
            return range(len(raw))
        side = 1 << self.k
        undefined_row = _UNDEF_BYTE * side
        cells = array("q")
        for start in range(0, len(raw), side):
            if raw[start:start + side] != undefined_row:
                cells.extend(m.start() for m in _DEFINED.finditer(raw, start, start + side))
        return cells


def and_inner() -> InnerFunction:
    """Binary AND as a k=1 inner function."""
    return InnerFunction(1, array("b", [0, 0, 0, 1]))


def _check_table_side(k: int) -> None:
    """Refuse a negative k, and a 2^k x 2^k table past the materialization
    guard; compares exponents, so no 2^k is formed first."""
    if k < 0:
        raise ValueError(f"inner k must be >= 0, got k = {k}")
    if k > MAX_MATERIALIZE.bit_length() - 1:
        raise SizeGuardExceeded(
            f"inner table side 2^{k} exceeds the guard {MAX_MATERIALIZE}")


def ip_inner(k: int) -> InnerFunction:
    """Inner product mod 2 on k-bit strings (total)."""
    _check_table_side(k)
    rows = [b"\x00"]
    for _ in range(k):  # one more top bit: the value flips where both are 1
        rows = [r + r for r in rows] + [r + r.translate(_FLIP) for r in rows]
    return InnerFunction(k, array("b", b"".join(rows)))


def weight_subsets(k: int, p: int) -> tuple[int, ...]:
    """All weight-p bitmasks of length k, ordered lexicographically by
    the sorted element list of the subset they encode."""
    masks = []
    for combo in combinations(range(k), p):
        mask = 0
        for e in combo:
            mask |= 1 << e
        masks.append(mask)
    return tuple(masks)


def disj_p(k: int) -> int:
    """Subset size p = k/3 of the disjointness restriction; k must be a
    positive multiple of 3."""
    if k < 3 or k % 3:
        raise ValueError("k must be a positive multiple of 3")
    return k // 3


def disj_le1_inner(k: int) -> InnerFunction:
    """Set disjointness on p-subsets of [k] (p = k/3), restricted to pairs
    intersecting in at most one element; 1 means intersecting."""
    p = disj_p(k)  # a bad k is reported before the size guard
    _check_table_side(k)
    subsets = weight_subsets(k, p)
    side = 1 << k
    values = bytearray(_UNDEF_BYTE * (side * side))
    for x in subsets:
        row = x * side
        for y in subsets:
            meet = x & y
            if not meet & (meet - 1):
                values[row + y] = meet != 0
    return InnerFunction(k, array("b", values))


# ---------------------------------------------------------------------------
# JSON wire formats


def _int_field(obj: dict, key: str) -> int:
    """obj[key], which must be a JSON int; a bool, a float or a string is
    not one."""
    value = obj[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be an int, got {value!r}")
    return value


def function_from_dict(obj: dict) -> BooleanFunction:
    n = _int_field(obj, "n")
    bits = obj["bits"]
    # n is compared with the length's exponent before 2^n is formed
    if not isinstance(bits, str) or n != len(bits).bit_length() - 1 \
            or len(bits) != 1 << n or set(bits) - {"0", "1"}:
        raise ValueError(f"bits must be a 0/1 string of length 2^n, n = {n}")
    return BooleanFunction(n, tuple(int(c) for c in bits))


def inner_from_dict(obj: dict) -> InnerFunction:
    k = _int_field(obj, "k")
    _check_table_side(k)
    side = 1 << k
    rows = obj["rows"]
    if not isinstance(rows, list) or len(rows) != side \
            or any(not isinstance(r, list) or len(r) != side for r in rows):
        raise ValueError(f"rows must form a {side}x{side} matrix")
    values = array("b")
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if cell == "u":
                values.append(UNDEF)
            elif cell in ("0", "1"):
                values.append(int(cell))
            else:
                raise ValueError(f"cell ({i},{j}) must be '0', '1' or 'u'")
    return InnerFunction(k, values)

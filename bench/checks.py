"""Independent checks of the program's outputs.

Nothing here imports blockcomp: every expected value is recomputed from
the op's inputs with the benchmark's own exact Walsh sums, bit operations,
dense linear algebra and, for degree minimality, scipy's HiGHS LP solver.
Each ``check_<kind>(meta, text)`` returns the names of the checks the
output fails; an empty list means it passed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.optimize import linprog

EPSILON = Fraction(1, 3)
LP_TOL = 1e-7       # HiGHS feasibility tolerance is 1e-7
FLOAT_REL = 1e-9    # slack for float outputs compared with float references
SVD_SIDE_CAP = 1024  # restricted compositions up to this side are decomposed


def _chi(w: int, x: int) -> int:
    return -1 if (w & x).bit_count() & 1 else 1


def _table(meta: dict) -> list[int]:
    return [int(c) for c in meta["bits"]]


def number(value) -> float:
    """A reported quantity, whether emitted as a float or as a "p/q" string."""
    return float(Fraction(value)) if isinstance(value, str) else float(value)


# ---------------------------------------------------------------------------
# degree


def best_error(table: list[int], n: int, degree: int) -> float:
    """min over polynomials of degree <= ``degree`` of max_x |p(x) - f(x)|,
    by HiGHS."""
    monos = [w for w in range(1 << n) if w.bit_count() <= degree]
    chi = np.array([[_chi(w, x) for w in monos] for x in range(1 << n)], dtype=float)
    ones = np.ones((1 << n, 1))
    a_ub = np.vstack([np.hstack([chi, -ones]), np.hstack([-chi, -ones])])
    f = np.array(table, dtype=float)
    b_ub = np.concatenate([f, -f])
    cost = np.zeros(len(monos) + 1)
    cost[-1] = 1.0
    bounds = [(None, None)] * len(monos) + [(0, None)]
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


def _degree_problems(table: list[int], n: int, degree) -> list[str]:
    """The claimed degree must be the least D whose best error is <= 1/3."""
    eps = float(EPSILON)
    if not isinstance(degree, int) or not 0 <= degree <= n:
        return ["degree_out_of_range"]
    problems = []
    if best_error(table, n, degree) > eps + LP_TOL:
        problems.append("degree_not_feasible")
    if degree >= 1 and best_error(table, n, degree - 1) <= eps + LP_TOL:
        problems.append("degree_not_minimal")
    return problems


def check_approxdeg(meta: dict, text: str) -> list[str]:
    out = json.loads(text)
    n, table = meta["n"], _table(meta)
    degree = out.get("degree")
    problems = _degree_problems(table, n, degree)
    coeffs = {int(w): Fraction(v) for w, v in out["coefficients"].items()}
    if any(w.bit_count() > degree for w, c in coeffs.items() if c):
        problems.append("coefficient_above_degree")
    for x in range(1 << n):
        value = sum((c if _chi(w, x) == 1 else -c for w, c in coeffs.items()),
                    Fraction(0))
        if abs(value - table[x]) > EPSILON:
            problems.append("approximation_error_above_epsilon")
            break
    return problems


def walsh(values: list[Fraction]) -> list[Fraction]:
    """Normalized Fourier coefficients 2^-n sum_x v(x) chi_w(x), exactly."""
    size = len(values)
    return [sum((v if _chi(w, x) == 1 else -v for x, v in enumerate(values)),
                Fraction(0)) / size for w in range(size)]


def check_witness(meta: dict, text: str) -> list[str]:
    out = json.loads(text)
    n, table = meta["n"], _table(meta)
    degree = out.get("degree")
    problems = _degree_problems(table, n, degree)
    q = [Fraction(0)] * (1 << n)
    for x, v in out["q"].items():
        q[int(x)] = Fraction(v)
    if sum((v for x, v in enumerate(q) if table[x]), Fraction(0)) != 1:
        problems.append("a_correlation_not_1")
    if not sum(abs(v) for v in q) < 1 / EPSILON:
        problems.append("b_l1_not_below_1_over_eps")
    q_hat = walsh(q)
    if max(abs(c) for c in q_hat) > Fraction(1, 1 << n) / EPSILON:
        problems.append("c_coefficient_above_bound")
    if isinstance(degree, int) and any(c for w, c in enumerate(q_hat)
                                       if w.bit_count() < degree):
        problems.append("d_mass_below_degree")
    return problems


# ---------------------------------------------------------------------------
# spectral pairs


@lru_cache(maxsize=None)
def disj_blocks(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(G, defined) for disjointness on p-subsets (p = k/3) with at most one
    common element; G holds the intersection size where defined."""
    p = k // 3
    subsets = [sum(1 << e for e in c) for c in itertools.combinations(range(k), p)]
    inter = np.array([[(a & b).bit_count() for b in subsets] for a in subsets])
    return np.where(inter <= 1, inter, 0), inter <= 1


@lru_cache(maxsize=None)
def ip_blocks(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(G, defined) for inner product mod 2, zero row removed."""
    rows, cols = range(1, 1 << k), range(1 << k)
    g = np.array([[(a & b).bit_count() & 1 for b in cols] for a in rows])
    return g, np.ones_like(g, dtype=bool)


def blocks(family: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    return ip_blocks(k) if family == "ip" else disj_blocks(k)


def disj_rho(k: int) -> float:
    """rho of the uniform disjointness pair, by a dense eigendecomposition."""
    g, defined = disj_blocks(k)
    mu0 = (defined & (g == 0)).astype(float)
    mu1 = (defined & (g == 1)).astype(float)
    mu0 /= mu0.sum()
    mu1 /= mu1.sum()
    side = g.shape[0]
    sum_scaled = side * np.abs(np.linalg.eigvalsh((mu0 + mu1) / 2)).max()
    diff_scaled = side * np.abs(np.linalg.eigvalsh((mu0 - mu1) / 2)).max()
    return max(diff_scaled, sum_scaled - 1.0, 0.0)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_REL * max(1.0, abs(b))


def check_specdisc(meta: dict, text: str) -> list[str]:
    out = json.loads(text)
    family, k = meta["family"], meta["k"]
    rho = number(out["rho"])
    if family == "ip":
        return [] if _close(rho, 1 / math.sqrt((1 << k) - 1)) else ["ip_rho_not_closed_form"]
    problems = []
    if not _close(rho, disj_rho(k)):
        problems.append("disj_rho_not_eigendecomposition")
    if rho > 3 / k + FLOAT_REL:
        problems.append("disj_rho_above_3_over_k")
    return problems


# ---------------------------------------------------------------------------
# certification chain


def composition_trace_norm(table: list[int], n: int, family: str, k: int
                           ) -> float | None:
    """Trace norm of f composed blockwise with the pair's inner function on
    the pair's rectangle (undefined entries set to 0), or None when a side
    exceeds SVD_SIDE_CAP.  Rows and columns are in an order of the
    benchmark's own; the trace norm does not depend on it."""
    g, defined = blocks(family, k)
    if g.shape[0] ** n > SVD_SIDE_CAP or g.shape[1] ** n > SVD_SIDE_CAP:
        return None
    z = np.zeros((1, 1), dtype=np.int64)
    ok = np.ones((1, 1), dtype=bool)
    for i in range(n):
        z = np.kron(z, np.ones_like(g)) + np.kron(np.ones_like(z), g << i)
        ok = np.kron(ok, defined)
    values = np.where(ok, np.array(table)[z], 0).astype(float)
    return float(np.linalg.svd(values, compute_uv=False).sum())


def check_mainlemma(meta: dict, text: str) -> list[str]:
    out = json.loads(text)
    problems = []
    if out["inner_product"] != "1/1":
        problems.append("inner_product_not_1")
    if not Fraction(out["h_l1"]) < 1 / EPSILON:
        problems.append("h_l1_not_below_1_over_eps")
    norm = composition_trace_norm(_table(meta), meta["n"], meta["family"], meta["k"])
    if norm is not None and number(out["tracenorm_lb"]) > norm * (1 + FLOAT_REL):
        problems.append("tracenorm_lb_above_trace_norm")
    return problems


# ---------------------------------------------------------------------------
# padding reductions


def flip_parameters(profile: list[int]) -> tuple[int, int]:
    n = len(profile) - 1
    ell0 = max((m for m in range(1, n // 2 + 1) if profile[m] != profile[m - 1]),
               default=0)
    ell1 = max((n - m for m in range((n + 1) // 2, n) if profile[m] != profile[m + 1]),
               default=0)
    return ell0, ell1


def check_reduce(meta: dict, text: str, samples: int = 200) -> list[str]:
    out = json.loads(text)
    profile = meta["profile"]
    n = len(profile) - 1
    problems = []
    if out.get("identity_holds") is not True:
        problems.append("identity_not_held")
    if (out["ell0"], out["ell1"]) != flip_parameters(profile):
        problems.append("flip_parameters_wrong")
    if out["case"] != meta["case"]:
        problems.append("case_wrong")
    k, blocks_n = out["k"], out["source_arity"]
    ones, c_ones = out["ones_pad"], out["composed_ones_pad"]
    if (blocks_n + ones + out["zeros_pad"] != n
            or blocks_n * k + c_ones + out["composed_zeros_pad"] != n
            or k % 3 or min(ones, out["zeros_pad"], c_ones, out["composed_zeros_pad"]) < 0):
        return problems + ["layout_does_not_fill_n"]
    # f(x AND y) on padded disjointness inputs must equal the restricted
    # source f(z 1^ones 0^zeros) with z_i = |a_i & b_i|
    p = k // 3
    subsets = [sum(1 << e for e in c) for c in itertools.combinations(range(k), p)]
    rng = random.Random(meta["sample_seed"])
    pad = ((1 << c_ones) - 1) << (blocks_n * k)
    for _ in range(samples):
        x = y = pad
        z_weight = 0
        for i in range(blocks_n):
            while True:
                a, b = rng.choice(subsets), rng.choice(subsets)
                if (a & b).bit_count() <= 1:
                    break
            z_weight += (a & b).bit_count()
            x |= a << (i * k)
            y |= b << (i * k)
        if profile[z_weight + ones] != profile[(x & y).bit_count()]:
            problems.append("padding_identity_fails_on_sample")
            break
    return problems


# ---------------------------------------------------------------------------
# protocol simulations


def inner_value(family: str, k: int, a: int, b: int) -> int | None:
    if family == "and":
        return a & b
    if family == "ip":
        return (a & b).bit_count() & 1
    p = k // 3
    if a.bit_count() != p or b.bit_count() != p or (a & b).bit_count() > 1:
        return None
    return (a & b).bit_count()


def decision_tree_depth(table: tuple[int, ...]) -> int:
    @lru_cache(maxsize=None)
    def depth(t: tuple[int, ...]) -> int:
        if len(set(t)) == 1:
            return 0
        m = len(t).bit_length() - 1
        best = m
        for i in range(m):
            lo = tuple(t[x] for x in range(len(t)) if not (x >> i) & 1)
            hi = tuple(t[x] for x in range(len(t)) if (x >> i) & 1)
            best = min(best, 1 + max(depth(lo), depth(hi)))
        return best
    return depth(tuple(table))


def repetitions_for(delta_cap: int) -> int:
    if delta_cap == 0:
        return 1
    target = 3.0 * (math.floor(math.log2(delta_cap)) + 1)
    r = max(1, math.ceil(18.0 * math.log(target)))
    r += 1 - r % 2
    while math.exp(-r / 18.0) > 1.0 / target:
        r += 2
    return r


def symand_budget(ell1: int) -> int:
    """Criterion 7's closed-form bit budget for the symmetric-AND protocol
    (c_ham = 1)."""
    delta = 2 * (ell1 - 1)
    header = math.ceil(math.log2(max(ell1 - 1, 1))) + 1
    probe = math.ceil(delta * math.log2(max(delta, 2)))
    return 2 + header + 1 + math.ceil(math.log2(delta + 1)) * repetitions_for(delta) * probe


def check_simulate(meta: dict, text: str) -> list[str]:
    lines = [json.loads(line) for line in text.splitlines() if line]
    trials, summary = lines[:-1], lines[-1]
    problems = set()
    if len(trials) != meta["trials"] or summary.get("errors") != 0:
        problems.add("trial_count_or_errors")
    if "profile" in meta:
        profile = meta["profile"]
        n = len(profile) - 1
        _, ell1 = flip_parameters(profile)
        budget = symand_budget(ell1)
        for t in trials:
            x, y = t["x"], t["y"]
            if not (0 <= x < 1 << n and 0 <= y < 1 << n) \
                    or max(n - x.bit_count(), n - y.bit_count()) >= max(ell1, 1):
                problems.add("input_outside_dense_domain")
            if t["output"] != profile[(x & y).bit_count()]:
                problems.add("wrong_output")
            if t["total_bits"] > budget:
                problems.add("ledger_over_budget")
    else:
        n, k, family = meta["n"], meta["k"], meta["family"]
        table = _table(meta)
        budget = decision_tree_depth(tuple(table)) * meta["repetitions"] * meta["g_cost"]
        mask = (1 << k) - 1
        for t in trials:
            x, y = t["x"], t["y"]
            z = 0
            for i in range(n):
                bit = inner_value(family, k, (x >> (i * k)) & mask, (y >> (i * k)) & mask)
                if bit is None:
                    problems.add("input_outside_g_domain")
                    break
                z |= bit << i
            else:
                if t["output"] != table[z]:
                    problems.add("wrong_output")
            if t["total_bits"] > budget:
                problems.add("ledger_over_budget")
    return sorted(problems)


CHECKS = {
    "approxdeg": check_approxdeg,
    "witness": check_witness,
    "specdisc": check_specdisc,
    "mainlemma": check_mainlemma,
    "reduce": check_reduce,
    "symand": check_simulate,
    "bcw": check_simulate,
}

"""Classical protocol simulations with bit-exact cost accounting.

Two upper-bound constructions: a decision-tree compiler that replaces
each query of the outer function by repeated runs of an inner-function
subprotocol, and the Hamming-distance binary-search protocol for
symmetric predicates composed with AND.  Each is compiled once
(``compile_bcw``, ``compile_symand``), which checks its arguments and
computes its per-run constants, so that a run is a walk over the queries
plus a lookup.  A run returns a frozen ``CostLedger`` shared by every run
that takes the same query path; the ledger does not carry the seed.
Subprotocol internals are modeled as exact-answer oracles with a charged
cost and optional injected error; each run draws its errors from a
generator seeded by the caller, so runs are reproducible bit for bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .boolcube import BooleanFunction, SymmetricProfile
from .errors import ArityMismatch

TREE_ARITY_CAP = 4


@dataclass(frozen=True)
class Leaf:
    value: int


@dataclass(frozen=True)
class Node:
    var: int            # 1-based variable index of the outer function
    low: "Node | Leaf"  # taken when the queried bit is 0
    high: "Node | Leaf"


@dataclass(frozen=True)
class DecisionTree:
    n: int
    root: Node | Leaf


def _restrict(n: int, table: tuple[int, ...], i: int, b: int) -> tuple[int, ...]:
    # drop variable i (1-based), keeping the sub-table where x_i = b
    out = []
    for x in range(1 << (n - 1)):
        low = x & ((1 << (i - 1)) - 1)
        high = x >> (i - 1)
        out.append(table[low | (b << (i - 1)) | (high << i)])
    return tuple(out)


def _min_depth(n: int, table: tuple[int, ...], memo: dict) -> tuple[int, int]:
    """The least query depth of a tree for table, and the first variable
    (1-based) that a tree of that depth can query at its root; (0, 0) for a
    constant table."""
    if all(v == table[0] for v in table):
        return 0, 0
    key = (n, table)
    if key not in memo:
        memo[key] = min((1 + max(_min_depth(n - 1, _restrict(n, table, i, b), memo)[0]
                                 for b in (0, 1)), i)
                        for i in range(1, n + 1))
    return memo[key]


def optimal_decision_tree(f: BooleanFunction) -> DecisionTree:
    """A tree achieving the minimal query depth (exhaustive restriction
    search); variable labels refer to f's original variables even inside
    restricted subtrees."""
    if f.n > TREE_ARITY_CAP:
        raise ArityMismatch(f"arity {f.n} exceeds the exhaustive-search cap {TREE_ARITY_CAP}")
    memo: dict = {}

    def build(n: int, table: tuple[int, ...], labels: tuple[int, ...]) -> Node | Leaf:
        _, i = _min_depth(n, table, memo)
        if i == 0:
            return Leaf(table[0])
        sub = labels[:i - 1] + labels[i:]
        return Node(labels[i - 1], build(n - 1, _restrict(n, table, i, 0), sub),
                    build(n - 1, _restrict(n, table, i, 1), sub))

    return DecisionTree(f.n, build(f.n, f.table, tuple(range(1, f.n + 1))))


@dataclass(frozen=True)
class CostLedger:
    """Record of everything a protocol run charged.

    One ``subprotocol_invocations`` entry is one majority-voted query,
    ``(label, bits per call, calls)``: the query ran ``calls`` times at
    ``bits per call`` each.  ``total`` is summed once, at construction.  A
    compiled run keeps one ledger per query path and hands the same object
    to every run that takes that path.
    """

    bits_sent_alice: int = 0
    bits_sent_bob: int = 0
    subprotocol_invocations: tuple[tuple[str, int, int], ...] = ()
    notes: tuple[str, ...] = ()
    total: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", self.bits_sent_alice + self.bits_sent_bob
                           + sum(c * r for _, c, r in self.subprotocol_invocations))


def _majority(truth: int, reps: int, error_prob: float,
              rng: random.Random | None) -> bool:
    """Majority of `reps` answers to a query whose true answer is `truth`,
    each flipped independently with probability error_prob.  The answers
    differ only by their flips, so only the flips are drawn, one draw per
    call in call order, and none when error_prob is 0."""
    flips = sum(rng.random() < error_prob for _ in range(reps)) if error_prob > 0.0 else 0
    votes = reps - flips if truth else flips
    return 2 * votes > reps


@dataclass(frozen=True)
class HamOracleConfig:
    """Cost and error model for a Hamming-threshold subprotocol call: a
    call at threshold d charges ceil(c_ham * d * log2(max(d, 2))) bits and
    errs independently with probability error_prob."""

    c_ham: float = 1.0
    error_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.error_prob <= 1.0 / 3.0:
            raise ValueError("error_prob must lie in [0, 1/3]")
        if not 0.0 <= self.c_ham < math.inf:
            raise ValueError("c_ham must be finite and non-negative")

    def cost(self, d: int) -> int:
        bits = self.c_ham * d * math.log2(max(d, 2))
        if not math.isfinite(bits):
            raise ValueError(f"cost of a threshold-{d} call overflows (c_ham = {self.c_ham})")
        return math.ceil(bits)


class CompiledBcw:
    """A decision tree for f with every query answered by a majority of
    `repetitions` runs of a g-subprotocol that costs `g_protocol_cost`
    bits per call, compiled once for any number of runs."""

    def __init__(self, tree: DecisionTree, g_protocol_cost: int, repetitions: int,
                 inject_error: float):
        self.tree = tree
        self.repetitions = repetitions
        self.inject_error = inject_error
        # the ledger entry of a query to variable i, at index i - 1
        self._entries = tuple((f"g@{i}", g_protocol_cost, repetitions)
                              for i in range(1, tree.n + 1))
        self._ledgers: dict[tuple[int, ...], CostLedger] = {}

    def run(self, z: int, seed: int | None = None) -> tuple[int, CostLedger]:
        """Walk the tree on the block values z, whose bit i - 1 is g on
        block i; the randomness of the injected errors comes from `seed`."""
        reps, error_prob = self.repetitions, self.inject_error
        rng = random.Random(seed) if error_prob > 0.0 else None
        path: tuple[int, ...] = ()
        node = self.tree.root
        while isinstance(node, Node):
            i = node.var
            path += (i,)
            node = node.high if _majority((z >> (i - 1)) & 1, reps, error_prob, rng) \
                else node.low
        ledger = self._ledgers.get(path)
        if ledger is None:
            ledger = self._ledgers[path] = CostLedger(
                subprotocol_invocations=tuple(self._entries[i - 1] for i in path))
        return node.value, ledger


def compile_bcw(tree: DecisionTree, g_protocol_cost: int, repetitions: int,
                inject_error: float = 0.0) -> CompiledBcw:
    """The BCW simulation of `tree`, its arguments checked once."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if g_protocol_cost < 0:
        raise ValueError("g_protocol_cost must be >= 0")
    if not 0.0 <= inject_error <= 1.0 / 3.0:
        raise ValueError("inject_error must lie in [0, 1/3]")
    return CompiledBcw(tree, g_protocol_cost, repetitions, inject_error)


def repetition_schedule(delta_cap: int) -> int:
    """Smallest odd r with exp(-r/18) at most 1/(3(floor(log2 Delta)+1)),
    the majority-vote error needed so a union bound over the binary-search
    probes stays below 1/3.  A zero cap needs no search at all, so r = 1."""
    if delta_cap < 0:
        raise ValueError("delta_cap must be >= 0")
    if delta_cap == 0:
        return 1
    target = 3.0 * (math.floor(math.log2(delta_cap)) + 1)
    r = math.ceil(18.0 * math.log(target))
    if r < 1:
        r = 1
    if r % 2 == 0:
        r += 1
    while math.exp(-r / 18.0) > 1.0 / target:
        r += 2
    return r


def za_header_bits(ell1: int) -> int:
    """Bits Alice uses to announce her zero count once it is known to be
    below ell1."""
    return math.ceil(math.log2(max(ell1 - 1, 1))) + 1


def dense_input(rng: random.Random, n: int, ell1: int) -> int:
    """An n-bit input with fewer than max(ell1, 1) zeros, at random positions.
    A sample of no positions draws nothing, so none is taken."""
    zeros = rng.randrange(max(ell1, 1))
    x = (1 << n) - 1
    if zeros:
        for pos in rng.sample(range(n), zeros):
            x &= ~(1 << pos)
    return x


class CompiledSymand:
    """Binary-search protocol for a symmetric f (with no flip in the lower
    half of the weight range) composed with bitwise AND, compiled once for
    any number of runs.

    f is given by its weight profile (``symmetric_profile(f)``); n, the
    values and ell1 are read from it.  Both sides first compare their zero
    counts against the top flip distance ell1 and output 0 early when
    either is over the threshold.  Otherwise Alice announces her zero
    count, the players binary-search the Hamming distance |x xor y| with
    majority-voted threshold probes, and Bob evaluates f at the implied
    intersection weight.  If f is 1 instead of 0 on the low plateau, the
    complement is computed and the output flipped, with a ledger note.

    The ledger of a search path, with the cost of each threshold it
    probes, is built the first time a run takes that path, so a cost that
    overflows is an error only for the runs that probe it.
    """

    def __init__(self, profile: SymmetricProfile, cfg: HamOracleConfig):
        self.n = profile.n
        self.cfg = cfg
        self.flip = profile.values[0]
        self.values = tuple(v ^ self.flip for v in profile.values)
        notes = ("negated: f is 1 on the low plateau",) if self.flip else ()
        self.ell1 = ell1 = profile.ell1
        if ell1 == 0:
            self._constant = CostLedger(notes=notes + ("constant after orientation",))
            return
        self._early_exit = CostLedger(1, 1, notes=notes + ("threshold early exit",))
        self.header = za_header_bits(ell1)
        alt = math.ceil(math.log2(max(ell1, 2)))
        if self.header != alt:
            notes += (f"header charged {self.header} bits (tight encoding {alt})",)
        self._search_notes = notes
        self.delta_cap = 2 * (ell1 - 1)
        self.reps = repetition_schedule(self.delta_cap)
        self._ledgers: dict[tuple[int, ...], CostLedger] = {}

    def run(self, x: int, y: int, seed: int | None = None) -> tuple[int, CostLedger]:
        """The protocol on Alice's x and Bob's y; the randomness of the
        injected errors comes from `seed`."""
        n, ell1 = self.n, self.ell1
        if not (0 <= x < (1 << n) and 0 <= y < (1 << n)):
            raise ValueError("input outside the cube")
        if ell1 == 0:
            return self.values[0] ^ self.flip, self._constant
        weight_x, weight_y = x.bit_count(), y.bit_count()
        if n - weight_x >= ell1 or n - weight_y >= ell1:
            return self.flip, self._early_exit

        reps, error_prob = self.reps, self.cfg.error_prob
        rng = random.Random(seed) if error_prob > 0.0 else None
        true_delta = (x ^ y).bit_count()
        path: tuple[int, ...] = ()
        lo, hi = 0, self.delta_cap
        while lo < hi:
            mid = (lo + hi + 1) // 2
            path += (mid,)
            if _majority(true_delta >= mid, reps, error_prob, rng):
                lo = mid
            else:
                hi = mid - 1
        ledger = self._ledgers.get(path)
        if ledger is None:
            entries = tuple((f"ham_{d}", self.cfg.cost(d), reps) for d in path)
            ledger = self._ledgers[path] = CostLedger(1 + self.header, 2, entries,
                                                      self._search_notes)
        weight = min(max((weight_x + weight_y - lo) // 2, 0), n)
        return self.values[weight] ^ self.flip, ledger


def compile_symand(profile: SymmetricProfile,
                   cfg: HamOracleConfig = HamOracleConfig()) -> CompiledSymand:
    """The symmetric-AND protocol for `profile`, which must have ell0 = 0."""
    if profile.ell0 != 0:
        raise ValueError(f"protocol requires ell0 = 0, got {profile.ell0}")
    return CompiledSymand(profile, cfg)

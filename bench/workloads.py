"""Seeded inputs for the three benchmark workloads.

A run repeats rounds until its time is up.  Round ``r`` of a run with seed
``s`` is built from ``random.Random(f"{workload}:{s}:{r}")``, so the same
seed gives the same inputs, and every round has the same make-up: the same
subcommands, the same sizes and the same fixed inputs, with only the seeded
tables and profiles changing.  Each round runs in a fresh worker process,
so every input meets caches as cold as a command-line user's.

An op is one CLI call: ``argv`` (without ``--out``) plus ``meta``, the
facts the independent checks need.  Input files are written into the
round's directory.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

# mainlemma cells with a mixed-sign witness matrix h whose smaller side is
# over the 512-dimension dense eigensolve limit while both sides fit the
# 4096 materialization guard: (arity, family, k).  They raise
# NormNotConverged on every input, so they run only on the fixed OR_n
# outer functions, never on seeded ones.
FAILING_CELLS = ((2, "ip", 5), (3, "ip", 4), (3, "disj", 6), (4, "ip", 3))
MAINLEMMA_FAMILIES = (("ip", 2), ("ip", 3), ("ip", 4), ("ip", 5),
                      ("disj", 3), ("disj", 6), ("disj", 9))

# reduce slots: (n, ell0, ell1 or None for a seeded one, c, case).  With
# --k-override 3 they enumerate 9^6, 9^4, 9^2, 9^3, 9^4, 9^2 and 9^4
# identity points.
REDUCE_SLOTS = (
    (20, 4, None, 1.0, "large-l0"),
    (16, 3, None, 1.0, "large-l0"),
    (14, 2, None, 1.0, "large-l0"),
    (18, 1, None, 12.0, "small-l0"),
    (20, 2, None, 12.0, "small-l0"),
    (19, 0, 9, 1.0, "l1"),
    (20, 0, 10, 1.0, "l1"),
)

# degree: fixed structured functions (profile, subcommand)
DEGREE_FIXED = (
    ("OR_5", [0, 1, 1, 1, 1, 1], "approxdeg"),
    ("MAJ_5", [0, 0, 0, 1, 1, 1], "witness"),
    ("THR2_5", [0, 0, 1, 1, 1, 1], "witness"),
    ("PAR_4", [0, 1, 0, 1, 0], "approxdeg"),
    ("THR3_4", [0, 0, 0, 1, 1], "approxdeg"),
    ("OR_4", [0, 1, 1, 1, 1], "witness"),
)
DEGREE_RANDOM_ARITY4 = 6  # half approxdeg, half witness

# simulate: symand (n, ell1, trials) and bcw (arity, family, k, trials)
SYMAND_SLOTS = ((16, 2, 1000), (16, 4, 1000), (16, 8, 1000), (20, 4, 150))
BCW_SLOTS = ((2, "and", 1, 2000), (4, "and", 1, 2000), (2, "ip", 3, 2000),
             (3, "ip", 2, 2000), (4, "ip", 3, 1000), (3, "disj", 3, 500),
             (2, "disj", 6, 300), (3, "disj", 6, 30))
BCW_REPETITIONS = 3
BCW_G_COST = 2


@dataclass
class Op:
    kind: str
    argv: list[str]
    meta: dict = field(default_factory=dict)


def _table_bits(n: int, pred) -> str:
    return "".join("1" if pred(x) else "0" for x in range(1 << n))


def _random_table(rng: random.Random, n: int, avoid: set[str]) -> str:
    """A seeded non-constant truth table not in ``avoid``."""
    while True:
        bits = "".join(rng.choice("01") for _ in range(1 << n))
        if "0" in bits and "1" in bits and bits not in avoid:
            avoid.add(bits)
            return bits


def symmetric_profile_with(rng: random.Random, n: int, ell0: int,
                           ell1: int) -> list[int]:
    """A seeded weight profile whose flip parameters are exactly
    (ell0, ell1), as boolcube defines them; the bits the parameters leave
    free are random."""
    lo_end, hi_start = n // 2, (n + 1) // 2
    v = [rng.randrange(2) for _ in range(n + 1)]
    c0 = rng.randrange(2)
    for m in range(ell0, lo_end + 1):
        v[m] = c0
    c1 = c0 if n % 2 == 0 else rng.randrange(2)
    for m in range(hi_start, n - ell1 + 1):
        v[m] = c1
    if ell0:
        v[ell0 - 1] = 1 - v[ell0]
    if ell1:
        v[n - ell1 + 1] = 1 - v[n - ell1]
    return v


class _Writer:
    def __init__(self, root: str):
        self.root = root
        self.count = 0

    def function(self, payload: dict) -> str:
        self.count += 1
        path = os.path.join(self.root, f"in{self.count:03d}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return path


def _certify(rng: random.Random, w: _Writer) -> list[Op]:
    ops = []
    for k in range(1, 10):
        ops.append(Op("specdisc", ["specdisc", "--family", "ip", "--k", str(k)],
                      {"family": "ip", "k": k, "label": f"ip{k}"}))
    for k in (3, 6, 9, 12):
        ops.append(Op("specdisc", ["specdisc", "--family", "disj", "--k", str(k)],
                      {"family": "disj", "k": k, "label": f"disj{k}"}))
    seen: set[str] = set()
    for n in (2, 3, 4):
        fixed = _table_bits(n, lambda x: x != 0)
        seen.add(fixed)
        seeded = _random_table(rng, n, seen)
        for bits, tag in ((fixed, f"OR_{n}"), (seeded, f"seeded_{n}")):
            path = w.function({"n": n, "bits": bits})
            for family, k in MAINLEMMA_FAMILIES:
                if tag.startswith("seeded") and (n, family, k) in FAILING_CELLS:
                    continue
                ops.append(Op("mainlemma",
                              ["mainlemma", "--f", path, "--family", family,
                               "--k", str(k)],
                              {"n": n, "bits": bits, "family": family, "k": k,
                               "label": f"{tag} x {family}{k}"}))
    for n, ell0, ell1, c, case in REDUCE_SLOTS:
        if ell1 is None:
            ell1 = rng.randint(0, n // 2)
        profile = symmetric_profile_with(rng, n, ell0, ell1)
        path = w.function({"profile": profile})
        argv = ["reduce", "--f", path, "--k-override", "3", "--check-identity"]
        if c != 1.0:
            argv += ["--c", str(c)]
        ops.append(Op("reduce", argv,
                      {"profile": profile, "case": case,
                       "sample_seed": rng.randrange(1 << 30),
                       "label": f"n={n} {case} c={c:g}"}))
    return ops


def _degree(rng: random.Random, w: _Writer) -> list[Op]:
    ops = []
    for name, profile, kind in DEGREE_FIXED:
        n = len(profile) - 1
        bits = _table_bits(n, lambda x: profile[x.bit_count()])
        path = w.function({"profile": profile})
        ops.append(Op(kind, [kind, "--f", path], {"n": n, "bits": bits, "label": name}))
    seen: set[str] = set()
    for i in range(DEGREE_RANDOM_ARITY4):
        bits = _random_table(rng, 4, seen)
        kind = "approxdeg" if i % 2 == 0 else "witness"
        path = w.function({"n": 4, "bits": bits})
        ops.append(Op(kind, [kind, "--f", path],
                      {"n": 4, "bits": bits, "label": f"seeded_4_{i}"}))
    return ops


def _simulate(rng: random.Random, w: _Writer) -> list[Op]:
    ops = []
    for n, ell1, trials in SYMAND_SLOTS:
        profile = symmetric_profile_with(rng, n, 0, ell1)
        path = w.function({"profile": profile})
        ops.append(Op("symand",
                      ["simulate", "--protocol", "symand", "--f", path, "--dense",
                       "--trials", str(trials), "--seed", str(rng.randrange(1 << 30))],
                      {"profile": profile, "trials": trials,
                       "label": f"symand n={n} ell1={ell1}"}))
    seen: set[str] = set()
    for n, family, k, trials in BCW_SLOTS:
        bits = _random_table(rng, n, seen)
        path = w.function({"n": n, "bits": bits})
        ops.append(Op("bcw",
                      ["simulate", "--protocol", "bcw", "--f", path,
                       "--g-family", family, "--k", str(k),
                       "--repetitions", str(BCW_REPETITIONS),
                       "--g-cost", str(BCW_G_COST),
                       "--trials", str(trials), "--seed", str(rng.randrange(1 << 30))],
                      {"n": n, "bits": bits, "family": family, "k": k,
                       "trials": trials, "repetitions": BCW_REPETITIONS,
                       "g_cost": BCW_G_COST, "label": f"bcw arity {n} {family}{k}"}))
    return ops


_BUILDERS = {"certify": _certify, "degree": _degree, "simulate": _simulate}
WORKLOADS = tuple(_BUILDERS)


def build_round(workload: str, seed: int, round_no: int, root: str) -> list[Op]:
    """Write round ``round_no``'s inputs under ``root`` and return its ops."""
    rng = random.Random(f"{workload}:{seed}:{round_no}")
    os.makedirs(root, exist_ok=True)
    return _BUILDERS[workload](rng, _Writer(root))

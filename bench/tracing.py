"""Spans around the program's layers, recorded from outside the program.

Each hook replaces a module attribute with a timing wrapper, under the name
through which the caller looks it up: ``mainlemma_certify`` calls
``mainlemma.operator_norm``, the CLI calls ``specdisc.ip_pair``, and so on.
Nothing under ``src/`` changes.  Spans are kept in memory as
``[name, layer, duration, self, size]`` and written out by the worker at
the end of the round.  A span's self time is its duration minus the
durations of the spans it directly encloses, so the self times of all spans
add up to the traced wall time.  ``size`` is a per-call work count (simplex
tableau cells, Gram dimension, materialized h cells, identity points,
ledger entries), 0 where none applies.

``cli._composed_value``, which the bcw sampler calls once per drawn input
pair, is counted but gets no span: a span per draw would swamp the trace.
"""

from __future__ import annotations

import functools
import importlib
import math
import time

def _tableau_cells(args, kwargs, result) -> int:
    n_vars = args[0] if args else kwargs["n_vars"]
    eq_rows = args[1] if len(args) > 1 else kwargs.get("eq_rows", ())
    ub_rows = args[2] if len(args) > 2 else kwargs.get("ub_rows", ())
    rows = len(eq_rows) + len(ub_rows)
    artificials = len(eq_rows) + sum(1 for _, rhs in ub_rows if rhs < 0)
    return rows * (n_vars + len(ub_rows) + artificials + 1)


def _gram_dim(args, kwargs, result) -> int:
    shape = getattr(args[0] if args else kwargs["matrix"], "shape", (0, 0))
    return min(shape) if len(shape) == 2 else 0


def _h_cells(args, kwargs, result) -> int:
    mat = getattr(result, "materialized", None)
    return 0 if mat is None else int(mat.size)


def _identity_points(args, kwargs, result) -> int:
    plan = args[0] if args else kwargs["plan"]
    k, p = plan.k, plan.k // 3
    pairs = math.comb(k, p) * (math.comb(k - p, p) + p * math.comb(k - p, p - 1))
    return pairs ** plan.source_arity if result else 0


def _ledger_entries(args, kwargs, result) -> int:
    return 0 if result is None else len(result[1].subprotocol_invocations)


# (module, attribute, span name, layer, size function or None)
HOOKS = (
    ("blockcomp.approxdeg", "solve_feasibility", "simplex.solve", "simplex", _tableau_cells),
    ("blockcomp.approxdeg", "approx_degree", "approxdeg.approx_degree", "approxdeg", None),
    ("blockcomp.approxdeg", "lp_feasible", "approxdeg.primal", "approxdeg", None),
    ("blockcomp.approxdeg", "dual_system_witness", "approxdeg.farkas", "approxdeg", None),
    ("blockcomp.approxdeg", "dual_witness", "approxdeg.dual_witness", "approxdeg", None),
    ("blockcomp.mainlemma", "dual_witness", "approxdeg.dual_witness", "approxdeg", None),
    ("blockcomp.approxdeg", "verify_witness", "approxdeg.verify", "approxdeg", None),
    ("blockcomp.approxdeg", "spectrum_of_values", "boolcube.walsh", "boolcube", None),
    ("blockcomp.approxdeg", "symmetric_profile", "boolcube.profile", "boolcube", None),
    ("blockcomp.boolcube", "symmetric_profile", "boolcube.profile", "boolcube", None),
    ("blockcomp.protocols", "symmetric_profile", "boolcube.profile", "boolcube", None),
    ("blockcomp.applications", "symmetric_profile", "boolcube.profile", "boolcube", None),
    ("blockcomp.boolcube", "from_profile", "boolcube.table", "boolcube", None),
    ("blockcomp.boolcube", "function_from_dict", "boolcube.table", "boolcube", None),
    ("blockcomp.applications", "pad_restrict", "boolcube.table", "boolcube", None),
    ("blockcomp.specdisc", "ip_pair", "specdisc.pair", "specdisc", None),
    ("blockcomp.specdisc", "disj_pair", "specdisc.pair", "specdisc", None),
    ("blockcomp.mainlemma", "validate_pair", "specdisc.pair", "specdisc", None),
    ("blockcomp.specdisc", "spectral_certificate", "specdisc.certificate", "specdisc", None),
    ("blockcomp.mainlemma", "spectral_certificate", "specdisc.certificate", "specdisc", None),
    ("blockcomp.specdisc", "operator_norm", "specdisc.opnorm", "specdisc", _gram_dim),
    ("blockcomp.mainlemma", "operator_norm", "mainlemma.hnorm", "specdisc", _gram_dim),
    ("blockcomp.mainlemma", "mainlemma_certify", "mainlemma.certify", "mainlemma", None),
    ("blockcomp.mainlemma", "build_witness_matrix", "mainlemma.assemble", "mainlemma", _h_cells),
    ("blockcomp.mainlemma", "inner_product_with_composition", "mainlemma.trace", "mainlemma", None),
    ("blockcomp.mainlemma", "opnorm_bound", "mainlemma.opnorm_bound", "mainlemma", None),
    ("blockcomp.applications", "reduction_plan", "applications.plan", "applications", None),
    ("blockcomp.applications", "padding_identity_check", "applications.identity",
     "applications", _identity_points),
    ("blockcomp.protocols", "bcw_compile_and_run", "protocols.trial", "protocols", _ledger_entries),
    ("blockcomp.protocols", "symmetric_and_protocol", "protocols.trial", "protocols",
     _ledger_entries),
    ("blockcomp.protocols", "optimal_decision_tree", "protocols.tree", "protocols", None),
)


class Tracer:
    """In-memory span recorder; ``install`` patches every hook it finds."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters = {"sample_draws": 0, "sample_accepted": 0}
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def enter(self, name: str, layer: str) -> None:
        self._stack.append([name, layer, time.perf_counter(), 0.0])

    def leave(self, size: int = 0) -> None:
        end = time.perf_counter()
        name, layer, start, child = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append([name, layer, duration, duration - child, size])

    def _wrap(self, fn, name: str, layer: str, size_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name, layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                size = size_fn(args, kwargs, result) if size_fn else 0
                self.leave(size)
        return wrapper

    def _count_draws(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            value = fn(*args, **kwargs)
            counters["sample_draws"] += 1
            if value is not None:
                counters["sample_accepted"] += 1
            return value
        return wrapper

    def install(self) -> None:
        for module_name, attr, name, layer, size_fn in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, layer, size_fn))
        cli = importlib.import_module("blockcomp.cli")
        original = getattr(cli, "_composed_value", None)
        if original is not None:
            self._saved.append((cli, "_composed_value", original))
            cli._composed_value = self._count_draws(original)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def _total(spans, name, field=2):
    return sum(s[field] for s in spans if s[0] == name)


def _count(spans, name):
    return sum(1 for s in spans if s[0] == name)


def _self(spans, layer):
    return sum(s[3] for s in spans if s[1] == layer)


def layer_metrics(spans: list[list], counters: dict) -> dict[str, float]:
    """Per-layer figures of one traced round."""
    draws = counters.get("sample_draws", 0)
    return {
        "simplex.solve_s": _total(spans, "simplex.solve"),
        "simplex.solves": _count(spans, "simplex.solve"),
        "simplex.tableau_cells": _total(spans, "simplex.solve", 4),
        "approxdeg.primal_s": _total(spans, "approxdeg.primal"),
        "approxdeg.farkas_s": _total(spans, "approxdeg.farkas"),
        "approxdeg.verify_s": _total(spans, "approxdeg.verify"),
        "approxdeg.self_s": _self(spans, "approxdeg"),
        "boolcube.walsh_s": _total(spans, "boolcube.walsh"),
        "boolcube.table_s": _total(spans, "boolcube.table"),
        "boolcube.profile_s": _total(spans, "boolcube.profile"),
        "boolcube.profile_calls": _count(spans, "boolcube.profile"),
        "specdisc.pair_s": _total(spans, "specdisc.pair"),
        "specdisc.opnorm_s": _total(spans, "specdisc.opnorm") + _total(spans, "mainlemma.hnorm"),
        "specdisc.opnorm_gram_dim": _total(spans, "specdisc.opnorm", 4)
        + _total(spans, "mainlemma.hnorm", 4),
        "mainlemma.assemble_s": _total(spans, "mainlemma.assemble"),
        "mainlemma.h_cells": _total(spans, "mainlemma.assemble", 4),
        "mainlemma.hnorm_s": _total(spans, "mainlemma.hnorm"),
        "mainlemma.trace_s": _total(spans, "mainlemma.trace"),
        "applications.plan_s": _total(spans, "applications.plan"),
        "applications.identity_s": _total(spans, "applications.identity"),
        "applications.identity_points": _total(spans, "applications.identity", 4),
        "protocols.trial_s": _total(spans, "protocols.trial"),
        "protocols.ledger_entries": _total(spans, "protocols.trial", 4),
        "protocols.tree_s": _total(spans, "protocols.tree"),
        "cli.self_s": _self(spans, "cli"),
        "cli.sample_yield": counters.get("sample_accepted", 0) / draws if draws else 0.0,
    }

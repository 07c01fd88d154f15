#!/usr/bin/env python3
"""blockcomp benchmark: CLI subcommands on seeded inputs, timed and checked.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The run repeats whole rounds of
one workload (see workloads.py) until ``--seconds`` have passed.  Each
round is a fresh worker process that calls ``blockcomp.cli.main`` once per
op, sequentially, in a closed loop, with BLAS pinned to one thread.  After
the last round every output is checked independently (checks.py), outside
the timed region.  An op fails when it raises, exits non-zero or fails a
check; ``correct`` is false when any output failed a check.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (interpreter start
plus ``import blockcomp.cli``), ``run_s`` (wall time of one round's ops)
and ``peak_rss_mb`` (a round's peak resident set), each the median over the
run, with both times rescaled by the probe (see PROBE_REFERENCE_S).
``--trace 1`` runs every round twice, untraced and then traced on the same
inputs, and prints the per-layer metrics of tracing.py, the per-op figures
of the untraced pass, ``trace.overhead_s`` (the traced minus the untraced
round time) and the raw ``wall.*`` times.  The last line of output is one
JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
# BLAS pinned to one thread; fixed string hashing so set and dict orders
# repeat between runs
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}

OP_KINDS = ("specdisc", "mainlemma", "reduce", "approxdeg", "witness")

# Wall times are rescaled to a machine on which the worker's probe loop takes
# this long.  On a shared host the same work can take 1.8 times longer from
# one minute to the next; the probe slows down with it, the program's code
# cannot change it, and dividing by it keeps that drift out of the figures.
PROBE_REFERENCE_S = 0.0008


class BenchmarkError(RuntimeError):
    pass


def spawn_worker(args: list[str], result_path: str) -> dict:
    """Run the worker to completion; return its result and its set-up time."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, WORKER, *args, result_path],
                          env={**os.environ, **WORKER_ENV},
                          capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_wall_s"] = result["import_done"] - start
    result["setup_s"] = result["setup_wall_s"] * PROBE_REFERENCE_S / result["probes"][0]
    return result


def run_round(ops, round_dir: str, trace: bool, tag: str) -> dict:
    manifest = {"trace": trace, "ops": [
        {"argv": op.argv, "out": os.path.join(round_dir, f"{tag}{i:03d}.out")}
        for i, op in enumerate(ops)]}
    manifest_path = os.path.join(round_dir, f"{tag}.manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    result = spawn_worker([manifest_path], os.path.join(round_dir, f"{tag}.result.json"))
    for rec, entry in zip(result["ops"], manifest["ops"]):
        rec["out"] = entry["out"]
    return result


def check_round(ops, result: dict) -> list[dict]:
    """One record per op: kind, wall and rescaled seconds, and the failure
    reason if any.  An op is rescaled by the mean of the probes on either
    side of it."""
    records = []
    probes = result["probes"]
    for i, (op, rec) in enumerate(zip(ops, result["ops"])):
        reason = None
        if rec["error"] is not None:
            reason = rec["error"]
        elif rec["status"] != 0:
            reason = f"exit_status_{rec['status']}"
        else:
            with open(rec["out"]) as fh:
                text = fh.read()
            try:
                problems = checks.CHECKS[op.kind](op.meta, text)
            except (KeyError, ValueError, TypeError, AttributeError,
                    ZeroDivisionError) as exc:
                problems = [f"unreadable_output_{type(exc).__name__}"]
            if problems:
                reason = "check:" + "+".join(problems)
        scale = 2 * PROBE_REFERENCE_S / (probes[i] + probes[i + 1])
        records.append({"kind": op.kind, "seconds": rec["seconds"] * scale,
                        "wall_s": rec["seconds"], "reason": reason,
                        "label": op.meta["label"], "meta": op.meta, "out": rec["out"]})
    return records


def op_figures(records: list[dict]) -> dict[str, float]:
    """Per-op-kind figures of one round's untraced pass."""
    seconds = Counter()
    trials = Counter()
    for r in records:
        seconds[r["kind"]] += r["seconds"]
        trials[r["kind"]] += r["meta"].get("trials", 0)
    figures = {f"op.{kind}_s": seconds[kind] for kind in OP_KINDS}
    for kind in ("symand", "bcw"):
        figures[f"op.{kind}_trials_per_s"] = \
            trials[kind] / seconds[kind] if seconds[kind] else 0.0
    total = 0.0
    for r in records:
        if r["kind"] == "mainlemma" and r["reason"] is None:
            with open(r["out"]) as fh:
                total += math.log2(checks.number(json.load(fh)["tracenorm_lb"]))
    figures["op.tracenorm_lb_log2"] = total
    return figures


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args) -> dict:
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "blockcomp", "cli.py")):
        raise BenchmarkError(f"no blockcomp sources under {root}/src; "
                             "run from the root of a source checkout")
    work = os.path.join(root, ".bench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        setup = [spawn_worker(["--probe"], os.path.join(work, f"probe{i}.json"))
                 for i in range(SETUP_PROBES)]
        rounds = []
        start = time.monotonic()
        while not rounds or time.monotonic() - start < args.seconds:
            round_dir = os.path.join(work, f"round{len(rounds):03d}")
            ops = workloads.build_round(args.workload, args.seed, len(rounds), round_dir)
            passes = [run_round(ops, round_dir, False, "plain")]
            if args.trace:
                passes.append(run_round(ops, round_dir, True, "traced"))
            rounds.append((ops, passes))
        return summarize(args, setup, rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


def summarize(args, setup: list[dict], rounds) -> dict:
    attempted = failed = 0
    correct = True
    reasons = Counter()
    op_seconds, op_wall, peak_mb, layer_rows = [], [], [], []
    for ops, passes in rounds:
        checked = [check_round(ops, result) for result in passes]
        for records in checked:
            attempted += len(records)
            for r in records:
                if r["reason"] is not None:
                    failed += 1
                    reasons[f"{r['reason']} [{r['label']}]"] += 1
                    if r["reason"].startswith("check:"):
                        correct = False
        plain = passes[0]
        setup.append(plain)
        op_seconds.append([r["seconds"] for r in checked[0]])
        op_wall.append([r["wall_s"] for r in checked[0]])
        peak_mb.append(plain["peak_rss_kb"] / 1024.0)
        if args.trace:
            traced = passes[1]
            probe_s = statistics.median(traced["probes"])
            layers = tracing.layer_metrics(traced["spans"], traced["counters"])
            for name in layers:
                if name.endswith("_s"):
                    layers[name] *= PROBE_REFERENCE_S / probe_s
            layers.update(op_figures(checked[0]))
            layers["trace.overhead_s"] = sum(r["seconds"] for r in checked[1]) \
                - sum(op_seconds[-1])
            layers["wall.run_s"] = sum(op_wall[-1])
            layers["wall.setup_s"] = plain["setup_wall_s"]
            layers["wall.probe_ms"] = 1000 * statistics.median(plain["probes"])
            layer_rows.append(layers)

    if args.trace:
        metrics = {name: {"value": statistics.median(row[name] for row in layer_rows),
                          "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        # every round has the same ops in the same order; the median of each
        # op slot over the rounds resists short bursts of machine noise better
        # than the median of round totals
        run_s = sum(statistics.median(slot) for slot in zip(*op_seconds))
        metrics = {"setup_s": {"value": statistics.median(p["setup_s"] for p in setup),
                               "unit": "s"},
                   "run_s": {"value": run_s, "unit": "s"},
                   "peak_rss_mb": {"value": statistics.median(peak_mb), "unit": "MB"}}

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {attempted}  failed {failed}")
    for reason, count in sorted(reasons.items()):
        print(f"  failed x{count}: {reason}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


LAYER_UNITS = {
    "simplex.solve_s": "s", "simplex.solves": "count", "simplex.tableau_cells": "count",
    "approxdeg.primal_s": "s", "approxdeg.farkas_s": "s", "approxdeg.verify_s": "s",
    "approxdeg.self_s": "s",
    "boolcube.walsh_s": "s", "boolcube.table_s": "s", "boolcube.profile_s": "s",
    "boolcube.profile_calls": "count",
    "specdisc.pair_s": "s", "specdisc.opnorm_s": "s", "specdisc.opnorm_gram_dim": "count",
    "mainlemma.assemble_s": "s", "mainlemma.h_cells": "count", "mainlemma.hnorm_s": "s",
    "mainlemma.trace_s": "s",
    "applications.plan_s": "s", "applications.identity_s": "s",
    "applications.identity_points": "count",
    "protocols.trial_s": "s", "protocols.ledger_entries": "count", "protocols.tree_s": "s",
    "cli.self_s": "s", "cli.sample_yield": "ratio",
    "op.specdisc_s": "s", "op.mainlemma_s": "s", "op.reduce_s": "s",
    "op.tracenorm_lb_log2": "bits", "op.approxdeg_s": "s", "op.witness_s": "s",
    "op.symand_trials_per_s": "trials/s", "op.bcw_trials_per_s": "trials/s",
    "trace.overhead_s": "s", "wall.run_s": "s", "wall.setup_s": "s", "wall.probe_ms": "ms",
}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except (BenchmarkError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

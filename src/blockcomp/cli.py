"""Command-line frontend.

Every subcommand loads plain JSON inputs, calls one library operation,
and writes a JSON report (sorted keys, rationals as "p/q" strings) so
identical invocations produce byte-identical output.  Exit status: 0 on
success, 1 when a computed invariant fails, 2 on bad input or a size guard,
3 on an internal failure (an LP pivot limit, a malformed system).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import random
import sys
from fractions import Fraction

from . import applications, approxdeg, boolcube, mainlemma, protocols, specdisc

OK, INVARIANT_FAILURE, INPUT_ERROR, INTERNAL_ERROR = 0, 1, 2, 3


def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _fields_payload(report) -> dict:
    """A report dataclass's fields by name, Fractions as "p/q" strings."""
    return {name: _frac_str(value) if isinstance(value, Fraction) else value
            for name, value in dataclasses.asdict(report).items()}


def _write(text: str, out_path: str | None) -> None:
    """Write text to --out if given, else to stdout."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload, out_path: str | None) -> None:
    _write(json.dumps(payload, sort_keys=True) + "\n", out_path)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} nests deeper than the JSON reader allows") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return data


def load_function(path: str) -> boolcube.BooleanFunction:
    """Truth table of a function file; every caller caps n at
    ``LP_ARITY_CAP``, so a profile past it is refused before its table is
    built."""
    data = _load_json(path)
    if "profile" in data:
        approxdeg._check_arity(boolcube.profile_from_values(data["profile"]).n)
        return boolcube.from_profile(data["profile"])
    return boolcube.function_from_dict(data)


def load_profile(path: str) -> boolcube.SymmetricProfile:
    """Weight profile of a symmetric function file; a profile file never
    becomes a truth table, a bits file must be symmetric."""
    data = _load_json(path)
    if "profile" in data:
        return boolcube.profile_from_values(data["profile"])
    return boolcube.symmetric_profile(boolcube.function_from_dict(data))


def load_inner(path: str) -> boolcube.InnerFunction:
    return boolcube.inner_from_dict(_load_json(path))


def _validate_args(a: argparse.Namespace) -> None:
    if getattr(a, "k", None) is not None and a.k < 1:
        raise ValueError("k must be >= 1")
    if getattr(a, "trials", None) is not None and a.trials < 1:
        raise ValueError("trials must be >= 1")
    if getattr(a, "inject_error", None) is not None \
            and not 0.0 <= a.inject_error <= 1.0 / 3.0:
        raise ValueError("inject-error must lie in [0, 1/3]")


def _inner_for(family: str, k: int) -> boolcube.InnerFunction:
    if family == "ip":
        return boolcube.ip_inner(k)
    if family == "disj":
        return boolcube.disj_le1_inner(k)
    if family == "and":
        if k != 1:
            raise ValueError(f"the and inner function has k = 1, got k = {k}")
        return boolcube.and_inner()
    raise ValueError(f"unknown family {family!r}")


def _cert_payload(family: str, k: int) -> tuple[dict, str]:
    """The specdisc report of one (family, k) and the key of its bound."""
    cert = specdisc.spectral_certificate(specdisc.family_pair(family, k))
    key, bound, within = specdisc.family_bound(family, k, cert)
    payload = {
        "family": family,
        "k": k,
        "rho": cert.rho,
        "sum_scaled": cert.sum_scaled,
        "diff_scaled": cert.diff_scaled,
        key: bound,
        "within_bound": within,
    }
    return payload, key


def cmd_approxdeg(args) -> int:
    f = load_function(args.f)
    eps = approxdeg._check_epsilon(args.epsilon)
    result = approxdeg.approx_degree(f, eps)
    _emit({
        "n": f.n,
        "epsilon": _frac_str(eps),
        "degree": result.degree,
        "coefficients": {str(w): _frac_str(cv)
                         for w, cv in sorted(result.coefficients.items())},
    }, args.out)
    return OK


def cmd_witness(args) -> int:
    f = load_function(args.f)
    eps = approxdeg._check_epsilon(args.epsilon)
    w = approxdeg.dual_witness(f, eps)
    report = w.report
    _emit({
        "n": f.n,
        "epsilon": _frac_str(eps),
        "degree": w.degree,
        "q": {str(x): _frac_str(v) for x, v in sorted(w.q.items())},
        "checks": {"a": report.check_a, "b": report.check_b,
                   "c": report.check_c, "d": report.check_d},
        "l1": _frac_str(w.l1()),
    }, args.out)
    return OK


def cmd_specdisc(args) -> int:
    payload, _ = _cert_payload(args.family, args.k)
    _emit(payload, args.out)
    return OK if payload["within_bound"] else INVARIANT_FAILURE


def cmd_knuth(args) -> int:
    ts = [args.t] if args.t is not None else list(range(args.p + 1))
    values = {str(t): _frac_str(specdisc.knuth_eigenvalue(args.k, args.p, args.s, t))
              for t in ts}
    dims = {str(t): specdisc.eigenspace_dimension(args.k, t) for t in ts}
    _emit({"k": args.k, "p": args.p, "s": args.s,
           "eigenvalues": values, "multiplicities": dims}, args.out)
    return OK


def cmd_mainlemma(args) -> int:
    f = load_function(args.f)
    eps = approxdeg._check_epsilon(args.epsilon)
    eps_prime = mainlemma._check_epsilon_prime(args.epsilon_prime, eps)
    pair = specdisc.family_pair(args.family, args.k)
    report = mainlemma.mainlemma_certify(f, pair, eps, eps_prime)
    _emit(_fields_payload(report), args.out)
    return OK if report.h_opnorm_exact <= report.h_opnorm_bound else INVARIANT_FAILURE


def cmd_reduce(args) -> int:
    profile = load_profile(args.f)
    plan = applications.reduction_plan(profile, args.c, args.k_override)
    payload = {**_fields_payload(plan), "valid": plan.valid}
    status = OK
    if args.check_identity:
        held = applications.padding_identity_check(plan, profile)
        payload["identity_holds"] = held
        if not held:
            status = INVARIANT_FAILURE
    _emit(payload, args.out)
    return status


def _bcw_trials(args, rng: random.Random):
    """(x, y, output, expected, ledger) of each bcw trial."""
    f = load_function(args.f)
    g = load_inner(args.g) if args.g else _inner_for(args.g_family, args.k)
    tree = protocols.optimal_decision_tree(f)
    # uniform on the composed domain: each block uniform on g's domain,
    # drawn as a row-major index into g's defined cells
    cells, values, side = g.defined_cells(), g.values, 1 << g.k
    if not cells:
        raise ValueError("inner function is undefined everywhere")
    protocol = protocols.compile_bcw(tree, args.g_cost, args.repetitions,
                                     args.inject_error)
    randrange, count, k, table = rng.randrange, len(cells), g.k, f.table
    seed = args.seed * 1_000_003
    for t in range(args.trials):
        x = y = z = 0
        for i in range(f.n):
            cell = cells[randrange(count)]
            a, b = divmod(cell, side)
            x |= a << (i * k)
            y |= b << (i * k)
            z |= values[cell] << i
        out, ledger = protocol.run(z, seed + t)
        yield x, y, out, table[z], ledger


def _symand_trials(args, rng: random.Random):
    """(x, y, output, expected, ledger) of each symand trial."""
    profile = load_profile(args.f)
    cfg = protocols.HamOracleConfig(c_ham=args.c_ham, error_prob=args.inject_error)
    protocol = protocols.compile_symand(profile, cfg)
    n, ell1, values = profile.n, profile.ell1, profile.values
    seed = args.seed * 1_000_003
    for t in range(args.trials):
        if args.dense:
            x = protocols.dense_input(rng, n, ell1)
            y = protocols.dense_input(rng, n, ell1)
        else:
            x, y = rng.randrange(1 << n), rng.randrange(1 << n)
        out, ledger = protocol.run(x, y, seed + t)
        yield x, y, out, values[(x & y).bit_count()], ledger


def cmd_simulate(args) -> int:
    rng = random.Random(args.seed)
    trials = (_bcw_trials if args.protocol == "bcw" else _symand_trials)(args, rng)
    lines: list[str] = []
    errors = max_total_bits = 0
    prefixes: dict[tuple, str] = {}
    for t, (x, y, out, expected, ledger) in enumerate(trials):
        key = (out, expected, ledger)
        prefix = prefixes.get(key)
        if prefix is None:
            prefix = prefixes[key] = _trial_prefix(out, expected, ledger)
        lines.append(f'{prefix}{t}, "x": {x}, "y": {y}}}\n')
        errors += out != expected
        if ledger.total > max_total_bits:
            max_total_bits = ledger.total
    summary = {"summary": True, "trials": args.trials, "errors": errors,
               "error_rate": errors / args.trials, "max_total_bits": max_total_bits}
    lines.append(json.dumps(summary, sort_keys=True) + "\n")
    _write("".join(lines), args.out)
    if args.inject_error == 0.0 and errors:
        return INVARIANT_FAILURE
    return OK


# One trial as a JSON object, keys in the sorted order json.dumps(sort_keys=True)
# writes them.  Every key before "trial" is fixed by the trial's output,
# expected value and ledger, so cmd_simulate formats that prefix once per
# distinct (output, expected, ledger) and appends the trial's number, x and
# y to it.  The values other than correct and notes are ints, whose str() is
# their JSON.
_TRIAL_PREFIX = (
    '{{"bits_alice": {}, "bits_bob": {}, "correct": {}, "expected": {}, '
    '"notes": {}, "output": {}, "subprotocol_bits": {}, "subprotocol_count": {}, '
    '"total_bits": {}, "trial": ').format


def _trial_prefix(out: int, expected: int, ledger: protocols.CostLedger) -> str:
    """A trial line up to its trial number."""
    sub_bits = calls = 0
    for _, cost, reps in ledger.subprotocol_invocations:
        sub_bits += cost * reps
        calls += reps
    notes = json.dumps(ledger.notes) if ledger.notes else "[]"
    return _TRIAL_PREFIX(ledger.bits_sent_alice, ledger.bits_sent_bob,
                         "true" if out == expected else "false", expected, notes, out,
                         sub_bits, calls, ledger.total)


BATCH_COLUMNS = ["f", "family", "k", "n", "degree", "rho", "sum_scaled",
                 "diff_scaled", "bound", "within_bound", "error"]


BATCH_ERRORS = (ValueError, OSError)


def _error_cell(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _function_cells(path: str | None) -> tuple[dict, str]:
    """The n and degree columns of one function, and its error if any."""
    cells: dict = {}
    if path is None:
        return cells, ""
    try:
        f = load_function(path)
        cells["n"] = f.n
        cells["degree"] = approxdeg.degree_of(f, Fraction(1, 3))
    except BATCH_ERRORS as exc:
        return cells, _error_cell(exc)
    return cells, ""


def _certificate_cells(family: str, k: int) -> tuple[dict, str]:
    """The certificate columns of one (family, k) cell, and its error if any."""
    try:
        payload, key = _cert_payload(family, k)
    except BATCH_ERRORS as exc:
        return {}, _error_cell(exc)
    return {"rho": payload["rho"], "sum_scaled": payload["sum_scaled"],
            "diff_scaled": payload["diff_scaled"], "bound": payload[key],
            "within_bound": payload["within_bound"]}, ""


def _grid_list(grid: dict, key: str, kind: type) -> list:
    """grid[key], [] if absent; it must be a list of `kind` values, and a
    bool is not an int."""
    values = grid.get(key, [])
    if not isinstance(values, list) or any(type(v) is not kind for v in values):
        raise ValueError(f"grid {key!r} must be a list of {kind.__name__} values")
    return values


def batch_table(grid: dict) -> str:
    """Cross product of functions x families x k values, one CSV row per
    cell; per-cell failures land in the error column without aborting.
    Each function and each (family, k) certificate is computed once, on
    first use.  f and family must be lists of strings, k a list of ints."""
    functions = _grid_list(grid, "f", str) if "f" in grid else [None]
    families = _grid_list(grid, "family", str)
    ks = _grid_list(grid, "k", int)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BATCH_COLUMNS, lineterminator="\n")
    writer.writeheader()
    certificates: dict[tuple[int, int], tuple[dict, str]] = {}
    for path in functions:
        function = None
        for i, family in enumerate(families):
            for j, k in enumerate(ks):
                if function is None:
                    function = _function_cells(path)
                cells, error = function
                if not error:
                    if (i, j) not in certificates:
                        certificates[i, j] = _certificate_cells(family, k)
                    cert_cells, error = certificates[i, j]
                    cells = {**cells, **cert_cells}
                writer.writerow({"f": path or "", "family": family, "k": k,
                                 **cells, "error": error})
    return buf.getvalue()


def cmd_batch(args) -> int:
    _write(batch_table(_load_json(args.grid)), args.out)
    return OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared afterwards:
    ``parse_args`` returns a fresh namespace each time and every default is
    immutable, so ``main`` may be called any number of times in one
    process.  Nothing builds it at import."""
    parser = argparse.ArgumentParser(
        prog="blockcomp",
        description="certified lower bounds for block-composed functions")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("approxdeg", help="approximate degree by exact LP")
    p.add_argument("--f", required=True)
    p.add_argument("--epsilon", default="1/3")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_approxdeg)

    p = sub.add_parser("witness", help="dual witness with verified properties")
    p.add_argument("--f", required=True)
    p.add_argument("--epsilon", default="1/3")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("specdisc", help="spectral discrepancy certificate")
    p.add_argument("--family", choices=["ip", "disj"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_specdisc)

    p = sub.add_parser("knuth", help="exact intersection-matrix eigenvalues")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_knuth)

    p = sub.add_parser("mainlemma", help="full certification chain")
    p.add_argument("--f", required=True)
    p.add_argument("--family", choices=["ip", "disj"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--epsilon", default="1/3")
    p.add_argument("--epsilon-prime", default="1/6")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_mainlemma)

    p = sub.add_parser("reduce", help="padding reduction plan")
    p.add_argument("--f", required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--k-override", type=int)
    p.add_argument("--check-identity", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("simulate", help="protocol simulation with ledgers")
    p.add_argument("--protocol", choices=["bcw", "symand"], required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--g")
    p.add_argument("--g-family", choices=["and", "ip", "disj"], default="and")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--g-cost", type=int, default=2)
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--c-ham", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-error", type=float, default=0.0)
    p.add_argument("--dense", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("batch", help="CSV summary over a parameter grid")
    p.add_argument("--grid", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_batch)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_args(args)
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's checks accept the program's outputs and reject corrupted ones.

    python3 -m pytest bench/test_checks.py
"""

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from blockcomp import cli  # noqa: E402

OR3 = "01111111"
MAJ5_PROFILE = [0, 0, 0, 1, 1, 1]


def run_cli(tmp_path, argv, payload=None):
    """Run one subcommand in-process and return its output text."""
    if payload is not None:
        f_path = tmp_path / "f.json"
        f_path.write_text(json.dumps(payload))
        argv = [a if a != "@f" else str(f_path) for a in argv]
    out = tmp_path / "out.txt"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out.read_text()


def with_field(text, **fields):
    payload = json.loads(text)
    payload.update(fields)
    return json.dumps(payload)


@pytest.fixture
def or3_witness(tmp_path):
    meta = {"n": 3, "bits": OR3}
    return meta, run_cli(tmp_path, ["witness", "--f", "@f"], {"n": 3, "bits": OR3})


def test_witness_accepted(or3_witness):
    meta, text = or3_witness
    assert checks.check_witness(meta, text) == []


def test_witness_with_one_flipped_q_value_rejected(or3_witness):
    meta, text = or3_witness
    payload = json.loads(text)
    x = sorted(payload["q"])[0]
    payload["q"][x] = str(-Fraction(payload["q"][x]))
    assert checks.check_witness(meta, json.dumps(payload))


@pytest.mark.parametrize("delta", [-1, 1])
def test_witness_degree_off_by_one_rejected(or3_witness, delta):
    meta, text = or3_witness
    degree = json.loads(text)["degree"]
    assert checks.check_witness(meta, with_field(text, degree=degree + delta))


def test_majority_degree_decided_exactly(tmp_path):
    """MAJ_5's best degree-1 error is exactly 1/3, so its degree is 1."""
    bits = "".join(str(MAJ5_PROFILE[x.bit_count()]) for x in range(32))
    meta = {"n": 5, "bits": bits}
    text = run_cli(tmp_path, ["approxdeg", "--f", "@f"], {"profile": MAJ5_PROFILE})
    assert json.loads(text)["degree"] == 1
    assert checks.check_approxdeg(meta, text) == []
    assert checks.check_approxdeg(meta, with_field(text, degree=2))


@pytest.mark.parametrize("delta", [-1, 1])
def test_approxdeg_degree_off_by_one_rejected(tmp_path, delta):
    meta = {"n": 3, "bits": OR3}
    text = run_cli(tmp_path, ["approxdeg", "--f", "@f"], {"n": 3, "bits": OR3})
    assert checks.check_approxdeg(meta, text) == []
    degree = json.loads(text)["degree"]
    assert checks.check_approxdeg(meta, with_field(text, degree=degree + delta))


def test_approxdeg_coefficient_change_rejected(tmp_path):
    meta = {"n": 3, "bits": OR3}
    text = run_cli(tmp_path, ["approxdeg", "--f", "@f"], {"n": 3, "bits": OR3})
    payload = json.loads(text)
    payload["coefficients"]["0"] = str(Fraction(payload["coefficients"]["0"]) + 1)
    assert "approximation_error_above_epsilon" in \
        checks.check_approxdeg(meta, json.dumps(payload))


@pytest.mark.parametrize("family,k", [("ip", 3), ("disj", 6)])
def test_specdisc_rho_checked(tmp_path, family, k):
    meta = {"family": family, "k": k}
    text = run_cli(tmp_path, ["specdisc", "--family", family, "--k", str(k)])
    assert checks.check_specdisc(meta, text) == []
    rho = json.loads(text)["rho"]
    assert checks.check_specdisc(meta, with_field(text, rho=rho * 1.001))


@pytest.mark.parametrize("family,k", [("ip", 3), ("disj", 6)])
def test_bound_above_trace_norm_rejected(tmp_path, family, k):
    meta = {"n": 2, "bits": "0111", "family": family, "k": k}
    text = run_cli(tmp_path, ["mainlemma", "--f", "@f", "--family", family, "--k", str(k)],
                   {"n": 2, "bits": "0111"})
    assert checks.check_mainlemma(meta, text) == []
    norm = checks.composition_trace_norm([0, 1, 1, 1], 2, family, k)
    assert checks.check_mainlemma(meta, with_field(text, tracenorm_lb=norm * 1.01)) \
        == ["tracenorm_lb_above_trace_norm"]


def test_mainlemma_inner_product_checked(tmp_path):
    meta = {"n": 2, "bits": "0111", "family": "ip", "k": 2}
    text = run_cli(tmp_path, ["mainlemma", "--f", "@f", "--family", "ip", "--k", "2"],
                   {"n": 2, "bits": "0111"})
    assert checks.check_mainlemma(meta, with_field(text, inner_product="2/3"))


def test_reduce_checked(tmp_path):
    profile = [0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
    meta = {"profile": profile, "case": "large-l0", "sample_seed": 5}
    text = run_cli(tmp_path, ["reduce", "--f", "@f", "--k-override", "3", "--check-identity"],
                   {"profile": profile})
    assert checks.check_reduce(meta, text) == []
    assert checks.check_reduce(meta, with_field(text, identity_holds=False))
    assert checks.check_reduce(meta, with_field(text, ones_pad=json.loads(text)["ones_pad"] + 1))


def _flip_first_output(text):
    lines = text.splitlines()
    first = json.loads(lines[0])
    first["output"] ^= 1
    return "\n".join([json.dumps(first)] + lines[1:]) + "\n"


def test_symand_wrong_output_rejected(tmp_path):
    profile = [0] * 13 + [1] * 4
    meta = {"profile": profile, "trials": 50}
    text = run_cli(tmp_path, ["simulate", "--protocol", "symand", "--f", "@f", "--dense",
                              "--trials", "50", "--seed", "3"], {"profile": profile})
    assert checks.check_simulate(meta, text) == []
    assert checks.check_simulate(meta, _flip_first_output(text)) == ["wrong_output"]


@pytest.mark.parametrize("family,k", [("and", 1), ("ip", 2), ("disj", 3)])
def test_bcw_wrong_output_rejected(tmp_path, family, k):
    meta = {"n": 3, "bits": OR3, "family": family, "k": k, "trials": 40,
            "repetitions": 3, "g_cost": 2}
    text = run_cli(tmp_path, ["simulate", "--protocol", "bcw", "--f", "@f",
                              "--g-family", family, "--k", str(k), "--repetitions", "3",
                              "--trials", "40", "--seed", "4"], {"n": 3, "bits": OR3})
    assert checks.check_simulate(meta, text) == []
    assert checks.check_simulate(meta, _flip_first_output(text)) == ["wrong_output"]


def test_bcw_ledger_over_budget_rejected(tmp_path):
    meta = {"n": 3, "bits": OR3, "family": "and", "k": 1, "trials": 10,
            "repetitions": 1, "g_cost": 2}
    text = run_cli(tmp_path, ["simulate", "--protocol", "bcw", "--f", "@f",
                              "--trials", "10", "--seed", "4"], {"n": 3, "bits": OR3})
    lines = text.splitlines()
    first = json.loads(lines[0])
    first["total_bits"] = 3 * 1 * 2 + 1
    corrupted = "\n".join([json.dumps(first)] + lines[1:]) + "\n"
    assert checks.check_simulate(meta, corrupted) == ["ledger_over_budget"]


@pytest.mark.parametrize("n,ell0,ell1", [(20, 4, 3), (19, 0, 9), (16, 3, 0), (15, 7, 7)])
def test_seeded_profiles_have_requested_flips(n, ell0, ell1):
    import random
    for seed in range(20):
        profile = workloads.symmetric_profile_with(random.Random(seed), n, ell0, ell1)
        assert checks.flip_parameters(profile) == (ell0, ell1)


def test_rounds_repeat_per_seed(tmp_path):
    a = workloads.build_round("simulate", 7, 2, str(tmp_path / "a"))
    b = workloads.build_round("simulate", 7, 2, str(tmp_path / "b"))
    c = workloads.build_round("simulate", 8, 2, str(tmp_path / "c"))
    assert [op.meta for op in a] == [op.meta for op in b]
    assert [op.meta for op in a] != [op.meta for op in c]


def test_benchmark_json_lists_every_reported_metric():
    import run
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from blockcomp import applications, approxdeg, boolcube, cli, mainlemma, protocols, specdisc
from blockcomp.approxdeg import LP_ARITY_CAP
from blockcomp.cli import main
from oracles import (dict_simulate_text, domain, farkas_only, inner_of_rows,
                     inner_to_dict, list_sampled_inputs, primal_sweep_result,
                     restrict_rows, seeded_table, value_matrix, weight_solves)


SRC = str(Path(__file__).resolve().parent.parent / "src")
UNDEF = boolcube.UNDEF


def src_env():
    """The environment with ``src`` first on PYTHONPATH, for a subprocess."""
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def or4(tmp_path):
    return write_json(tmp_path, "or4.json", {"n": 4, "bits": "0" + "1" * 15})


@pytest.fixture
def parity2(tmp_path):
    return write_json(tmp_path, "parity2.json", {"n": 2, "bits": "0110"})


@pytest.fixture
def step4(tmp_path):
    return write_json(tmp_path, "step4.json", {"profile": [0, 0, 0, 1, 1]})


@pytest.fixture
def l1_toy(tmp_path):
    return write_json(tmp_path, "l1toy.json", {"profile": [0] * 8 + [1] * 5})


def _refuse_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def strict_json(text):
    """json.loads without Python's NaN, Infinity and -Infinity extensions."""
    return json.loads(text, parse_constant=_refuse_constant)


def run(capsys, argv):
    """Exit code, stdout and stderr of one CLI call; every JSON line on
    stdout must parse as strict JSON."""
    code = main(argv)
    captured = capsys.readouterr()
    for line in captured.out.splitlines():
        if line.startswith("{"):
            strict_json(line)
    return code, captured.out, captured.err


def last_json(out):
    return strict_json(out.strip().splitlines()[-1])


class TestApproxdegCommand:
    def test_or4(self, capsys, or4):
        code, out, _ = run(capsys, ["approxdeg", "--f", or4])
        assert code == 0
        payload = json.loads(out)
        assert payload["degree"] == 2
        assert payload["epsilon"] == "1/3"
        assert all("/" in v for v in payload["coefficients"].values())

    def test_profile_input(self, capsys, step4):
        code, out, _ = run(capsys, ["approxdeg", "--f", step4])
        assert code == 0
        assert json.loads(out)["n"] == 4

    @pytest.mark.parametrize("profile,degree", [
        ([0, 0, 0, 0, 1, 1, 1, 1], 3), ([0] + [1] * 7, 2), ([0, 1] * 4, 7),
        ([0, 0] + [1] * 6, 2)], ids=("MAJ_7", "OR_7", "PAR_7", "THR2_7"))
    def test_symmetric_at_arity_cap(self, capsys, tmp_path, profile, degree):
        """Each printed polynomial is checked exactly on all 128 points."""
        n = len(profile) - 1
        path = write_json(tmp_path, "f.json", {"profile": profile})
        code, out, _ = run(capsys, ["approxdeg", "--f", path])
        payload = json.loads(out)
        assert (code, payload["n"], payload["degree"]) == (0, n, degree)
        coeffs = {int(w): Fraction(c) for w, c in payload["coefficients"].items()}
        assert sorted(coeffs) == approxdeg.monomials_up_to(n, degree)
        for x in range(1 << n):
            value = sum(-c if (w & x).bit_count() & 1 else c for w, c in coeffs.items())
            assert abs(value - profile[x.bit_count()]) <= Fraction(1, 3), x

    def test_bad_epsilon(self, capsys, or4):
        code, _, err = run(capsys, ["approxdeg", "--f", or4, "--epsilon", "2/3"])
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("command", ["approxdeg", "witness", "mainlemma"])
    def test_zero_denominator_epsilon(self, capsys, or4, command):
        argv = [command, "--f", or4, "--epsilon", "1/0"]
        if command == "mainlemma":
            argv += ["--family", "ip", "--k", "2"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_arity_past_lp_cap(self, capsys, tmp_path):
        n = LP_ARITY_CAP + 1
        path = write_json(tmp_path, "or.json", {"profile": [0] + [1] * n})
        code, out, err = run(capsys, ["approxdeg", "--f", path])
        assert code == 2
        assert out == ""
        assert err == f"error: LP operations support n <= {LP_ARITY_CAP}, got {n}\n"

    @pytest.mark.parametrize("argv", [
        ["approxdeg"], ["witness"], ["mainlemma", "--family", "ip", "--k", "2"],
        ["simulate", "--protocol", "bcw"]], ids=lambda argv: argv[0])
    def test_profile_past_lp_cap_never_expanded(self, capsys, monkeypatch, tmp_path,
                                                argv):
        def refuse(profile):
            raise AssertionError(f"expanded a {len(profile)}-entry profile")

        monkeypatch.setattr(boolcube, "from_profile", refuse)
        n = 30
        path = write_json(tmp_path, "big.json", {"profile": [0] * 20 + [1] * (n - 19)})
        code, out, err = run(capsys, argv[:1] + ["--f", path] + argv[1:])
        assert (code, out) == (2, "")
        assert err == f"error: LP operations support n <= {LP_ARITY_CAP}, got {n}\n"

    def test_batch_profile_past_lp_cap_never_expanded(self, capsys, monkeypatch,
                                                      tmp_path):
        def refuse(profile):
            raise AssertionError(f"expanded a {len(profile)}-entry profile")

        monkeypatch.setattr(boolcube, "from_profile", refuse)
        path = write_json(tmp_path, "big.json", {"profile": [0] * 12 + [1] * 12})
        grid = write_json(tmp_path, "grid.json", {"f": [path], "family": ["ip"], "k": [2]})
        code, out, _ = run(capsys, ["batch", "--grid", grid])
        assert code == 0
        row = out.strip().splitlines()[1]
        assert row.endswith(f'"ValueError: LP operations support n <= {LP_ARITY_CAP}, got 23"')

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["approxdeg", "--f", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["approxdeg", "--f", str(path)])
        assert code == 2

    def test_bad_bits_length(self, capsys, tmp_path):
        path = write_json(tmp_path, "short.json", {"n": 3, "bits": "0110"})
        code, _, err = run(capsys, ["approxdeg", "--f", path])
        assert code == 2


class TestWitnessCommand:
    def test_parity(self, capsys, parity2):
        code, out, _ = run(capsys, ["witness", "--f", parity2])
        assert code == 0
        payload = json.loads(out)
        assert payload["degree"] == 2
        assert all(payload["checks"].values())
        assert set(payload["checks"]) == {"a", "b", "c", "d"}

    def test_constant_rejected(self, capsys, tmp_path):
        path = write_json(tmp_path, "const.json", {"n": 2, "bits": "1111"})
        code, _, err = run(capsys, ["witness", "--f", path])
        assert code == 2


class TestSpecdiscCommand:
    def test_ip(self, capsys):
        code, out, _ = run(capsys, ["specdisc", "--family", "ip", "--k", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["within_bound"] is True
        assert "bound_inv_sqrt_K_minus_1" in payload

    def test_disj(self, capsys):
        code, out, _ = run(capsys, ["specdisc", "--family", "disj", "--k", "6"])
        assert code == 0
        payload = json.loads(out)
        assert payload["within_bound"] is True
        assert payload["bound_3_over_k"] == pytest.approx(0.5)

    def test_unknown_family(self, capsys):
        with pytest.raises(SystemExit):
            main(["specdisc", "--family", "xor", "--k", "3"])

    def test_oversized_k(self, capsys):
        # k is checked before the side count is formed, so a k whose side
        # has thousands of digits is refused at once, naming k and the cap
        for family, k, cap in (("ip", 10, 9), ("ip", 20000, 9), ("disj", 15, 12),
                               ("disj", 30000, 12), ("disj", 3000000, 12)):
            code, out, err = run(capsys, ["specdisc", "--family", family, "--k", str(k)])
            assert (code, out) == (2, "")
            assert err == (f"error: {family} k = {k} exceeds the certifiable cap "
                           f"k <= {cap} (pair side <= 512)\n")

    def test_disj_bad_k(self, capsys):
        code, _, err = run(capsys, ["specdisc", "--family", "disj", "--k", "4"])
        assert code == 2


class TestKnuthCommand:
    def test_all_levels(self, capsys):
        code, out, _ = run(capsys, ["knuth", "--k", "6", "--p", "2", "--s", "0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["eigenvalues"] == {"0": "6/1", "1": "-3/1", "2": "1/1"}
        assert payload["multiplicities"] == {"0": 1, "1": 5, "2": 9}

    def test_single_level(self, capsys):
        code, out, _ = run(capsys, ["knuth", "--k", "6", "--p", "2",
                                    "--s", "1", "--t", "0"])
        assert code == 0
        assert json.loads(out)["eigenvalues"] == {"0": "8/1"}

    def test_invalid_parameters(self, capsys):
        code, _, err = run(capsys, ["knuth", "--k", "4", "--p", "3", "--s", "0"])
        assert code == 2


class TestMainlemmaCommand:
    def test_parity_ip(self, capsys, parity2):
        code, out, _ = run(capsys, ["mainlemma", "--f", parity2,
                                    "--family", "ip", "--k", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["inner_product"] == "1/1"
        assert payload["norm_source"] == "exact_spectrum"
        assert payload["qcc_constant_note"] == "no hidden constant applied"

    def test_disj(self, capsys, parity2):
        code, out, _ = run(capsys, ["mainlemma", "--f", parity2,
                                    "--family", "disj", "--k", "3"])
        assert code == 0
        assert json.loads(out)["inner_product"] == "1/1"

    def test_constant_rejected(self, capsys, tmp_path):
        path = write_json(tmp_path, "const.json", {"n": 2, "bits": "0000"})
        code, _, _ = run(capsys, ["mainlemma", "--f", path,
                                  "--family", "ip", "--k", "2"])
        assert code == 2

    @pytest.mark.parametrize("eps_prime", ["1/0", "-10", "-1/100", "1/3"])
    def test_bad_epsilon_prime(self, capsys, parity2, eps_prime):
        code, out, err = run(capsys, ["mainlemma", "--f", parity2, "--family", "ip",
                                      "--k", "3", f"--epsilon-prime={eps_prime}"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "epsilon_prime" in err

    def test_zero_epsilon_prime(self, capsys, parity2):
        code, out, _ = run(capsys, ["mainlemma", "--f", parity2, "--family", "ip",
                                    "--k", "3", "--epsilon-prime", "0"])
        assert code == 0
        assert json.loads(out)["epsilon_prime"] == "0/1"

    # mixed-sign h with a smaller side over 512 yet within the 4096 guard
    @pytest.mark.parametrize("n,family,k", [(2, "ip", 5), (3, "ip", 4),
                                            (3, "disj", 6), (4, "ip", 3)])
    def test_large_mixed_sign_cells(self, capsys, tmp_path, n, family, k):
        path = write_json(tmp_path, "or.json",
                          {"n": n, "bits": "0" + "1" * ((1 << n) - 1)})
        code, out, _ = run(capsys, ["mainlemma", "--f", path,
                                    "--family", family, "--k", str(k)])
        assert code == 0
        payload = json.loads(out)
        assert payload["norm_source"] == "exact_spectrum"
        assert payload["inner_product"] == "1/1"
        assert 0 < payload["h_opnorm_exact"] <= payload["h_opnorm_bound"]


# functions whose witness, approxdeg and mainlemma stdout is pinned below;
# MAJ_5's best degree-1 error is exactly 1/3, and maj5_bits and thr2_6_bits
# are the tables of the maj5 and thr2_6 profiles
DIGEST_FUNCTIONS = {
    "or3": {"n": 3, "bits": "0" + "1" * 7},
    "or4": {"n": 4, "bits": "0" + "1" * 15},
    "maj5": {"profile": [0, 0, 0, 1, 1, 1]},
    "maj5_bits": {"n": 5, "bits": "".join("1" if x.bit_count() >= 3 else "0"
                                          for x in range(32))},
    "thr2_6": {"profile": [0, 0, 1, 1, 1, 1, 1]},
    "thr2_6_bits": {"n": 6, "bits": "".join("1" if x.bit_count() >= 2 else "0"
                                            for x in range(64))},
    "or5": {"profile": [0, 1, 1, 1, 1, 1]},
    "par4": {"profile": [0, 1, 0, 1, 0]},
    "maj7": {"profile": [0, 0, 0, 0, 1, 1, 1, 1]},
    "table6": {"n": 6, "bits": "01100011101101001011011110010001"
                               "10010111000011011000000011111101"},
}


class TestLowerBoundDigests:
    # sha256 of stdout, recorded when the witness degree came from the primal
    # sweep; the Farkas sweep must reproduce every byte
    @pytest.mark.parametrize("name,argv,digest", [
        ("or4", ["witness"],
         "2b03d859869dc4edcd2b384c48906dfca456dc612e42becb415d8d6089c8a1a4"),
        ("table6", ["witness"],
         "c82d7b735697d42bf1dd123b071db9cd03c4cced594995386d639472453fd6c1"),
        # the mainlemma digests are those of the stdout the chain printed
        # while it also reported the paper's closed form, with its two keys
        # (closed_form_lb, closed_form_valid) removed and the rest
        # re-serialized: every other key keeps every byte
        ("or4", ["mainlemma", "--family", "disj", "--k", "6"],
         "e77e69c644e5cd7f1ac88bc739a348bfb9963ecd980ae711b21859a50ef5edeb"),
        ("or4", ["mainlemma", "--family", "ip", "--k", "9"],
         "3e4336dea9739bc382c83e8a32c9925598f3df4e2c56b41df14bb59f9b08251c"),
        ("or4", ["mainlemma", "--family", "ip", "--k", "9", "--epsilon-prime", "3/10"],
         "f7ad75c2bdbd4e1d97e9896b2aa6833a1849626750fdd949c6917bba4f667b7e"),
        ("table6", ["mainlemma", "--family", "ip", "--k", "9"],
         "0bd0770d7d50126bc791b4bf7340b789d6bda54c1a4c14af23365efd4a93aca5"),
        # re-recorded when the witness of a symmetric f began to come from
        # the Farkas sweep on its n+1 weights, expanded to
        # q(x) = psi_|x| / C(n, |x|), instead of the 2^n-point table system
        # at d - 1: the degree is unchanged, q is another vertex (OR_4's is
        # the same one), and a symmetric table still prints what its profile
        # prints
        ("maj5", ["witness"],
         "dfdd9c993afda616204fd334b263a14fbf73bd58f332824faf44f0940ca0798f"),
        ("maj5_bits", ["witness"],
         "dfdd9c993afda616204fd334b263a14fbf73bd58f332824faf44f0940ca0798f"),
        ("maj7", ["witness"],
         "c33f04a44af59438f68bbe2bccb20b2540e737768000fef32b200d24c59d2b9f"),
        ("or3", ["mainlemma", "--family", "ip", "--k", "3"],
         "9ff05747407a02ced0e64d5d7438714195de9a12cf5e7b827e7dd3e3295a8ee2"),
        # re-recorded when approxdeg on a symmetric f began to print the
        # weight LP's polynomial expanded into the characters instead of a
        # vertex of the table primal: the degree and the keys are those the
        # table primal printed, and a symmetric table still prints what its
        # profile prints.  Re-recorded again (all but par4, whose d = n
        # polynomial is f itself) when the polynomial began to be read off
        # the Farkas certificate of the sweep's infeasible solve at d
        # instead of the weight primal's vertex: degree and keys unchanged
        ("or5", ["approxdeg"],
         "04fc193c4e5d3f147f092219226c63056e9f55fd510e95c1cba2bbbc5e34a6e3"),
        ("par4", ["approxdeg"],
         "6724ad3edff9e046dfb3b1cc98f69bcb53584b9d0e705db0b8ae1573f75d8e33"),
        ("thr2_6", ["approxdeg"],
         "e0bccaa1acd8234472cef485825847ddf32e50344cd17de63eda74c802a321e4"),
        ("thr2_6_bits", ["approxdeg"],
         "e0bccaa1acd8234472cef485825847ddf32e50344cd17de63eda74c802a321e4"),
        ("maj7", ["approxdeg"],
         "cbba14c615a51ba10376923de7e2b1755df9765537c559ceea315d14b820b1f4"),
    ], ids=("witness-or4", "witness-table6", "mainlemma-or4-disj6", "mainlemma-or4-ip9",
            "mainlemma-or4-ip9-eps3/10", "mainlemma-table6-ip9", "witness-maj5",
            "witness-maj5-bits", "witness-maj7", "mainlemma-or3-ip3", "approxdeg-or5",
            "approxdeg-par4", "approxdeg-thr2_6", "approxdeg-thr2_6-bits",
            "approxdeg-maj7"))
    def test_golden_digest(self, capsys, tmp_path, name, argv, digest):
        path = write_json(tmp_path, f"{name}.json", DIGEST_FUNCTIONS[name])
        code, out, _ = run(capsys, [*argv, "--f", path])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestReduceCommand:
    def test_plan_with_identity(self, capsys, l1_toy):
        code, out, _ = run(capsys, ["reduce", "--f", l1_toy,
                                    "--k-override", "3", "--check-identity"])
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "l1"
        assert payload["identity_holds"] is True
        assert payload["valid"] is True

    def test_plan_without_identity(self, capsys, or4):
        code, out, _ = run(capsys, ["reduce", "--f", or4])
        assert code == 0
        payload = json.loads(out)
        assert "identity_holds" not in payload
        assert payload["case"] == "large-l0"

    def test_degenerate_identity_request(self, capsys, or4):
        # natural k makes n' = 0; the identity check refuses the plan
        code, _, err = run(capsys, ["reduce", "--f", or4, "--check-identity"])
        assert code == 2

    def test_non_symmetric(self, capsys, tmp_path):
        path = write_json(tmp_path, "proj.json", {"n": 2, "bits": "0101"})
        code, _, _ = run(capsys, ["reduce", "--f", path])
        assert code == 2

    @pytest.mark.parametrize("c", ["inf", "-inf", "nan", "0"])
    @pytest.mark.parametrize("profile", [[0, 0, 0, 1, 1, 1, 1, 1], [0] * 12 + [1] * 10],
                             ids=("n7", "n21"))
    def test_unusable_c_exits_2(self, capsys, tmp_path, c, profile):
        path = write_json(tmp_path, "p.json", {"profile": profile})
        code, out, err = run(capsys, ["reduce", "--f", path, f"--c={c}"])
        assert (code, out) == (2, "")
        assert err.startswith("error: c must be positive and finite")

    def test_c_overflowing_k_exits_2(self, capsys, tmp_path):
        path = write_json(tmp_path, "p.json", {"profile": [0, 0, 0, 1, 1, 1, 1, 1]})
        code, out, err = run(capsys, ["reduce", "--f", path, "--c", "1e-320"])
        assert (code, out) == (2, "")
        assert err.startswith("error: c = 1e-320 is too small")

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_k_override_below_one_exits_2(self, capsys, tmp_path, k):
        path = write_json(tmp_path, "p.json", {"profile": [0, 0, 0, 1, 1, 1, 1, 1]})
        code, out, err = run(capsys, ["reduce", "--f", path, f"--k-override={k}"])
        assert (code, out) == (2, "")
        assert err.startswith("error: k_override must be >= 1")


BAD_PROFILES = ["0011", [0, 2, 1], [1], []]
PROFILE_COMMANDS = {
    "approxdeg": ["approxdeg"],
    "reduce": ["reduce"],
    "symand": ["simulate", "--protocol", "symand"],
}


class TestProfileInputs:
    @pytest.mark.parametrize("command", list(PROFILE_COMMANDS))
    @pytest.mark.parametrize("profile", BAD_PROFILES, ids=repr)
    def test_malformed_profile_exits_2(self, capsys, tmp_path, command, profile):
        path = write_json(tmp_path, "bad.json", {"profile": profile})
        code, out, err = run(capsys, PROFILE_COMMANDS[command] + ["--f", path])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    # n must be a JSON int: a float, a bool or a string is refused, not
    # coerced, and an infinite one raises no OverflowError; a str payload is
    # the file's raw text, here a file nested past the JSON reader's limit
    @pytest.mark.parametrize("command", list(PROFILE_COMMANDS))
    @pytest.mark.parametrize("payload", [
        [0, 1], 5, {"n": 2, "bits": 6}, {"n": math.inf, "bits": "01"},
        {"n": 2.5, "bits": "0110"}, {"n": True, "bits": "01"}, {"n": "2", "bits": "0110"},
        pytest.param('{"n": 1e400, "bits": "01"}', id="n_1e400"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested")], ids=repr)
    def test_malformed_function_file_exits_2(self, capsys, tmp_path, command, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        code, out, err = run(capsys, PROFILE_COMMANDS[command] + ["--f", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("values, argv", [
        ([0] * 8 + [1] * 5, ["reduce", "--k-override", "3", "--check-identity"]),
        ([0, 1, 1, 1, 1], ["reduce"]),
        ([0, 0, 0, 1, 1], ["simulate", "--protocol", "symand", "--dense",
                           "--trials", "40", "--seed", "3"]),
        ([0, 0, 0, 1, 1], ["simulate", "--protocol", "symand", "--trials", "40",
                           "--inject-error", "0.2"]),
    ])
    def test_profile_and_bits_agree(self, capsys, tmp_path, values, argv):
        n = len(values) - 1
        bits = "".join(str(values[x.bit_count()]) for x in range(1 << n))
        by_profile = write_json(tmp_path, "p.json", {"profile": values})
        by_bits = write_json(tmp_path, "b.json", {"n": n, "bits": bits})
        code, out, _ = run(capsys, argv + ["--f", by_profile])
        assert code == 0
        assert run(capsys, argv + ["--f", by_bits]) == (0, out, "")

    def test_no_truth_table_past_lp_cap(self, capsys, monkeypatch, tmp_path):
        def refuse(n):
            if n > LP_ARITY_CAP:
                raise AssertionError(f"built a 2^{n} truth table")

        from_predicate = boolcube.from_predicate
        post_init = boolcube.BooleanFunction.__post_init__

        def checked_predicate(n, pred):
            refuse(n)
            return from_predicate(n, pred)

        def checked_post_init(self):
            refuse(self.n)
            post_init(self)

        monkeypatch.setattr(boolcube, "from_predicate", checked_predicate)
        monkeypatch.setattr(boolcube.BooleanFunction, "__post_init__", checked_post_init)
        l1 = write_json(tmp_path, "l1.json", {"profile": [0] * 11 + [1] * 10})
        code, out, _ = run(capsys, ["reduce", "--f", l1, "--k-override", "3",
                                    "--check-identity"])
        assert code == 0
        payload = json.loads(out)
        assert (payload["n"], payload["case"], payload["identity_holds"]) == (20, "l1", True)
        code, out, _ = run(capsys, ["reduce", "--f", l1])
        assert code == 0
        step = write_json(tmp_path, "step.json", {"profile": [0] * 17 + [1] * 4})
        code, out, _ = run(capsys, ["simulate", "--protocol", "symand", "--f", step,
                                    "--dense", "--trials", "30", "--seed", "5"])
        assert code == 0
        assert last_json(out)["errors"] == 0
        with pytest.raises(AssertionError, match="2\\^20"):
            boolcube.from_profile([0] * 17 + [1] * 4)


def bcw_trials(capsys, argv):
    code, out, _ = run(capsys, ["simulate", "--protocol", "bcw"] + argv)
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[-1]["errors"] == 0
    return lines[:-1]


def blocks_of(value, n, k):
    return [(value >> (i * k)) & ((1 << k) - 1) for i in range(n)]


class TestBcwSampler:
    @pytest.mark.parametrize("family,k", [("and", 1), ("ip", 2), ("disj", 3),
                                          ("disj", 6)])
    def test_blocks_in_domain(self, capsys, parity2, family, k):
        g = {"and": boolcube.and_inner, "ip": boolcube.ip_inner,
             "disj": boolcube.disj_le1_inner}[family]
        g = g() if family == "and" else g(k)
        trials = bcw_trials(capsys, ["--f", parity2, "--g-family", family,
                                     "--k", str(k), "--trials", "200"])
        for t in trials:
            cells = zip(blocks_of(t["x"], 2, k), blocks_of(t["y"], 2, k))
            bits = [int(value_matrix(g)[a, b]) for a, b in cells]
            assert boolcube.UNDEF not in bits
            assert t["expected"] == bits[0] ^ bits[1]

    def test_inner_from_file(self, capsys, tmp_path, parity2):
        g = restrict_rows(boolcube.ip_inner(2), [1, 2])
        path = write_json(tmp_path, "g.json", inner_to_dict(g))
        trials = bcw_trials(capsys, ["--f", parity2, "--g", path, "--trials", "100"])
        seen = {a for t in trials for a in blocks_of(t["x"], 2, 2)}
        assert seen == {1, 2}

    def test_undefined_inner_exits_2(self, capsys, tmp_path, parity2):
        path = write_json(tmp_path, "g.json", {"k": 1, "rows": [["u", "u"], ["u", "u"]]})
        code, out, err = run(capsys, ["simulate", "--protocol", "bcw", "--f", parity2,
                                      "--g", path, "--trials", "5"])
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("rows", [5, [5, 5]])
    def test_malformed_rows_exit_2(self, capsys, tmp_path, parity2, rows):
        path = write_json(tmp_path, "g.json", {"k": 1, "rows": rows})
        code, out, err = run(capsys, ["simulate", "--protocol", "bcw", "--f", parity2,
                                      "--g", path, "--trials", "5"])
        assert (code, out) == (2, "")
        assert err.startswith("error: rows must form a 2x2 matrix")

    @pytest.mark.parametrize("family,k,n", [("and", 1, 3), ("ip", 3, 3), ("disj", 6, 2)])
    def test_draws_match_list_sampler(self, capsys, tmp_path, family, k, n):
        # the row-major index draw consumes the rng like a choice from the
        # list of g's defined cells, so both give the same inputs
        bits = "01101001" if n == 3 else "0110"
        path = write_json(tmp_path, "f.json", {"n": n, "bits": bits})
        trials = bcw_trials(capsys, ["--f", path, "--g-family", family, "--k", str(k),
                                     "--trials", "150", "--seed", "11"])
        g = {"and": lambda k: boolcube.and_inner(), "ip": boolcube.ip_inner,
             "disj": boolcube.disj_le1_inner}[family](k)
        want = list_sampled_inputs(g, n, 150, 11)
        assert [(t["x"], t["y"]) for t in trials] == [(x, y) for x, y, _ in want]
        assert [t["expected"] for t in trials] == [int(bits[z]) for _, _, z in want]

    def test_total_range_layout_matches_list_sampler(self, capsys, parity2):
        # a total g draws from range(side^2) without listing its cells
        g = boolcube.ip_inner(10)
        assert g.defined_cells() == range(1 << 20)
        trials = bcw_trials(capsys, ["--f", parity2, "--g-family", "ip", "--k", "10",
                                     "--trials", "40", "--seed", "4"])
        want = list_sampled_inputs(g, 2, 40, 4)
        assert [(t["x"], t["y"], t["expected"]) for t in trials] == \
            [(x, y, z.bit_count() & 1) for x, y, z in want]

    def test_partial_index_layout_matches_list_sampler(self, capsys, tmp_path):
        # undefined cells in the middle of rows: the sampler draws from an
        # index array that skips them
        g = inner_of_rows(2, [[0, UNDEF, 1, UNDEF], [UNDEF, UNDEF, UNDEF, UNDEF],
                              [1, 1, UNDEF, 0], [UNDEF, 0, 1, UNDEF]])
        assert isinstance(g.defined_cells(), array)
        assert list(g.defined_cells()) == [0, 2, 8, 9, 11, 13, 14]
        g_path = write_json(tmp_path, "g.json", inner_to_dict(g))
        f_path = write_json(tmp_path, "f.json", {"n": 3, "bits": "01101001"})
        trials = bcw_trials(capsys, ["--f", f_path, "--g", g_path, "--trials", "120",
                                     "--seed", "6"])
        want = list_sampled_inputs(g, 3, 120, 6)
        assert [(t["x"], t["y"], t["expected"]) for t in trials] == \
            [(x, y, z.bit_count() & 1) for x, y, z in want]

    def test_disj3_cells_uniform(self, capsys, tmp_path):
        # every block is uniform on the 9 cells of disj3's domain
        path = write_json(tmp_path, "f.json", {"n": 3, "bits": "01101001"})
        trials = bcw_trials(capsys, ["--f", path, "--g-family", "disj", "--k", "3",
                                     "--trials", "600", "--seed", "9"])
        counts = Counter()
        for t in trials:
            counts.update(zip(blocks_of(t["x"], 3, 3), blocks_of(t["y"], 3, 3)))
        cells = set(domain(boolcube.disj_le1_inner(3)))
        assert set(counts) == cells and len(cells) == 9
        draws, p = 3 * 600, 1 / 9
        slack = 5 * (draws * p * (1 - p)) ** 0.5
        assert all(abs(c - draws * p) <= slack for c in counts.values())


class TestSimulateCommand:
    def test_bcw_exact(self, capsys, parity2):
        code, out, _ = run(capsys, ["simulate", "--protocol", "bcw",
                                    "--f", parity2, "--g-family", "and",
                                    "--trials", "50", "--seed", "4"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 51
        summary = json.loads(lines[-1])
        assert summary["summary"] is True
        assert summary["errors"] == 0
        first = json.loads(lines[0])
        assert first["correct"] is True
        assert first["subprotocol_count"] <= 2

    def test_bcw_ip_inner(self, capsys, parity2):
        code, out, _ = run(capsys, ["simulate", "--protocol", "bcw",
                                    "--f", parity2, "--g-family", "ip",
                                    "--k", "2", "--trials", "20"])
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["errors"] == 0

    def test_symand_dense(self, capsys, step4):
        code, out, _ = run(capsys, ["simulate", "--protocol", "symand",
                                    "--f", step4, "--dense",
                                    "--trials", "200", "--seed", "1"])
        assert code == 0
        summary = last_json(out)
        assert summary["errors"] == 0
        assert summary["max_total_bits"] > 2  # dense inputs reach the search

    def test_symand_uniform(self, capsys, step4):
        code, out, _ = run(capsys, ["simulate", "--protocol", "symand",
                                    "--f", step4, "--trials", "100"])
        assert code == 0
        assert last_json(out)["errors"] == 0

    def test_inject_error_validation(self, capsys, step4):
        code, _, err = run(capsys, ["simulate", "--protocol", "symand",
                                    "--f", step4, "--inject-error", "0.5"])
        assert code == 2

    def test_trials_validation(self, capsys, step4):
        code, _, _ = run(capsys, ["simulate", "--protocol", "symand",
                                  "--f", step4, "--trials", "0"])
        assert code == 2

    def test_negative_g_cost_exits_2(self, capsys, parity2):
        code, out, err = run(capsys, ["simulate", "--protocol", "bcw", "--f", parity2,
                                      "--g-cost", "-5", "--trials", "2"])
        assert (code, out) == (2, "")
        assert err.startswith("error: g_protocol_cost")

    @pytest.mark.parametrize("family,k", [("ip", 13), ("disj", 15)])
    def test_oversized_inner_table_exits_2(self, capsys, parity2, family, k):
        code, out, err = run(capsys, ["simulate", "--protocol", "bcw", "--f", parity2,
                                      "--g-family", family, "--k", str(k),
                                      "--trials", "2"])
        assert (code, out) == (2, "")
        assert err.startswith("error: inner table side")

    @pytest.mark.parametrize("c_ham,message", [("inf", "finite"), ("nan", "finite"),
                                               ("1e308", "overflows")])
    def test_unbounded_c_ham_exits_2(self, capsys, l1_toy, c_ham, message):
        code, out, err = run(capsys, ["simulate", "--protocol", "symand", "--f", l1_toy,
                                      "--dense", "--c-ham", c_ham, "--trials", "5"])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and message in err

    def test_unreached_overflowing_cost_exits_0(self, capsys, tmp_path):
        # uniform 16-bit inputs have too many zeros for ell1 = 2, so every
        # trial exits early and no threshold cost is computed; dense inputs
        # reach the threshold-2 probe, whose cost overflows
        path = write_json(tmp_path, "f.json", {"profile": [0] * 15 + [1, 1]})
        argv = ["simulate", "--protocol", "symand", "--f", path, "--c-ham", "1e308",
                "--trials", "5"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert last_json(out)["errors"] == 0
        assert '"threshold early exit"' in out
        code, out, err = run(capsys, argv + ["--dense"])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "overflows" in err

    def test_and_inner_other_k_exits_2(self, capsys, parity2):
        code, out, err = run(capsys, ["simulate", "--protocol", "bcw", "--f", parity2,
                                      "--g-family", "and", "--k", "5", "--trials", "2"])
        assert (code, out) == (2, "")
        assert err.startswith("error: the and inner function has k = 1")

    def test_injected_error_reported(self, capsys, step4):
        code, out, _ = run(capsys, ["simulate", "--protocol", "symand",
                                    "--f", step4, "--dense",
                                    "--inject-error", "0.1",
                                    "--trials", "300", "--seed", "2"])
        assert code == 0  # nonzero injection never maps errors to exit 1
        assert last_json(out)["error_rate"] <= 1.0 / 3.0 + 0.02


# simulate runs whose stdout the dict-per-line oracle must reproduce, as
# (protocol, function, arguments); together they give every ledger note and,
# through injected errors, false lines
SIMULATE_CASES = {
    "bcw-and": ("bcw", "parity2", ["--g-family", "and", "--trials", "50", "--seed", "4"]),
    "bcw-ip": ("bcw", "parity2", ["--g-family", "ip", "--k", "2", "--inject-error", "0.3",
                                  "--trials", "80", "--seed", "2"]),
    "bcw-disj": ("bcw", "parity2", ["--g-family", "disj", "--k", "3", "--repetitions", "3",
                                    "--inject-error", "0.2", "--trials", "60", "--seed", "5"]),
    "symand-dense": ("symand", "neg_header", ["--dense", "--inject-error", "0.33",
                                              "--trials", "150", "--seed", "1"]),
    "symand-uniform": ("symand", "step4", ["--inject-error", "0.2", "--trials", "120",
                                           "--seed", "3"]),
    "symand-constant": ("symand", "ones", ["--trials", "5"]),
    "bcw-user-g": ("bcw", "parity2", ["--g", "partial_ip2", "--repetitions", "3",
                                      "--inject-error", "0.33", "--trials", "90",
                                      "--seed", "8"]),
    "bcw-arity4-ip3": ("bcw", "arity4", ["--g-family", "ip", "--k", "3", "--trials", "70",
                                          "--seed", "6"]),
    "symand-ell1-1": ("symand", "and4", ["--dense", "--inject-error", "0.2", "--trials", "40",
                                         "--seed", "2"]),
}
SIMULATE_FUNCTIONS = {
    "parity2": {"n": 2, "bits": "0110"},
    "arity4": {"n": 4, "bits": "0110100011010011"},
    "and4": {"profile": [0, 0, 0, 0, 1]},  # ell1 = 1: delta_cap 0, no search
    "neg_header": {"profile": [1] * 7 + [0] * 4},  # f(0) = 1 and ell1 = 4
    "step4": {"profile": [0, 0, 0, 1, 1]},
    "ones": {"profile": [1, 1, 1, 1]},
}


# inner functions a case names after --g: ip2 with rows 1 and 3 and
# column 2 undefined
SIMULATE_INNERS = {
    "partial_ip2": inner_of_rows(2, [[0, 0, UNDEF, 0], [UNDEF, UNDEF, UNDEF, UNDEF],
                                     [0, 0, UNDEF, 1], [UNDEF, UNDEF, UNDEF, UNDEF]]),
}


def simulate_argv(tmp_path, case):
    protocol, name, rest = SIMULATE_CASES[case]
    path = write_json(tmp_path, f"{name}.json", SIMULATE_FUNCTIONS[name])
    rest = [write_json(tmp_path, f"{arg}.json", inner_to_dict(SIMULATE_INNERS[arg]))
            if arg in SIMULATE_INNERS else arg for arg in rest]
    return ["--protocol", protocol, "--f", path, *rest]


class TestSimulateOutput:
    @pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
    def test_matches_dict_oracle(self, capsys, tmp_path, case):
        argv = simulate_argv(tmp_path, case)
        code, out, _ = run(capsys, ["simulate", *argv])
        assert code == 0
        # line lists, so a mismatch reports its first differing line quickly
        assert out.splitlines(keepends=True) \
            == dict_simulate_text(argv).splitlines(keepends=True)

    def test_cases_cover_notes_and_errors(self, capsys, tmp_path):
        text = "".join(run(capsys, ["simulate", *simulate_argv(tmp_path, case)])[1]
                       for case in SIMULATE_CASES)
        for note in ("negated: f is 1 on the low plateau", "threshold early exit",
                     "header charged 3 bits (tight encoding 2)",
                     "constant after orientation"):
            assert f'"{note}"' in text
        assert '"correct": false' in text and '"correct": true' in text

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = simulate_argv(tmp_path, "bcw-disj")
        _, out, _ = run(capsys, ["simulate", *argv])
        path = tmp_path / "trials.jsonl"
        code, printed, _ = run(capsys, ["simulate", *argv, "--out", str(path)])
        assert (code, printed) == (0, "")
        assert path.read_bytes() == out.encode()

    # sha256 of stdout, recorded from the dict-per-line emitter; pins the
    # bytes, key order included, independently of the oracle
    @pytest.mark.parametrize("name,argv,digest", [
        ("neg_header", ["--protocol", "symand", "--dense", "--inject-error", "0.33",
                        "--trials", "100", "--seed", "1"],
         "e47ce8fe8d6be44b94c427453c63bdf99dfbd0168d5ab96b90c3dfbafcc8d67c"),
        ("parity2", ["--protocol", "bcw", "--g-family", "disj", "--k", "3",
                     "--repetitions", "3", "--inject-error", "0.2", "--trials", "50",
                     "--seed", "5"],
         "85b01deeb7cbd20a77ed233f2ffea6de28f32f9913876e23a09fe92c92f3fb58"),
    ], ids=("symand-dense", "bcw-disj"))
    def test_golden_digest(self, capsys, tmp_path, name, argv, digest):
        path = write_json(tmp_path, "f.json", SIMULATE_FUNCTIONS[name])
        code, out, _ = run(capsys, ["simulate", "--f", path, *argv])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestBatchCommand:
    def test_disj_rows(self, capsys, tmp_path):
        grid = write_json(tmp_path, "grid.json", {"family": ["disj"], "k": [3, 6, 9]})
        code, out, _ = run(capsys, ["batch", "--grid", grid])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("f,family,k,n,degree,rho")
        for row in lines[1:]:
            assert ",True," in row

    def test_empty_grid(self, capsys, tmp_path):
        grid = write_json(tmp_path, "empty.json", {})
        code, out, _ = run(capsys, ["batch", "--grid", grid])
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    def test_oversized_cell_isolated(self, capsys, tmp_path):
        grid = write_json(tmp_path, "grid.json", {"family": ["ip"], "k": [2, 13]})
        code, out, _ = run(capsys, ["batch", "--grid", grid])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert "SizeGuardExceeded" not in lines[1]
        assert "SizeGuardExceeded" in lines[2]

    @pytest.mark.parametrize("grid", [
        [1, 2],
        {"f": [{}], "family": ["ip"], "k": [2]},
        {"family": ["ip"], "k": ["2"]},
        {"family": "ip", "k": [2]},
        {"family": ["ip"], "k": [True]},
    ], ids=("top_level_list", "f_not_str", "k_not_int", "family_not_list", "k_bool"))
    def test_malformed_grid_exits_2(self, capsys, tmp_path, grid):
        path = write_json(tmp_path, "grid.json", grid)
        code, out, err = run(capsys, ["batch", "--grid", path])
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_function_column(self, capsys, tmp_path, or4):
        grid = write_json(tmp_path, "grid.json",
                          {"f": [or4], "family": ["ip"], "k": [2]})
        code, out, _ = run(capsys, ["batch", "--grid", grid])
        assert code == 0
        row = out.strip().splitlines()[1]
        assert row.split(",")[4] == "2"  # degree column


    def test_each_function_and_certificate_computed_once(self, capsys, monkeypatch,
                                                         tmp_path, or4):
        from blockcomp import approxdeg, cli

        degrees, certificates = [], []
        real_degree, real_cert = approxdeg.degree_of, cli._cert_payload
        monkeypatch.setattr(approxdeg, "degree_of",
                            lambda *a: degrees.append(a) or real_degree(*a))
        monkeypatch.setattr(cli, "_cert_payload",
                            lambda *a: certificates.append(a) or real_cert(*a))
        missing = str(tmp_path / "missing.json")
        grid = write_json(tmp_path, "grid.json", {"f": [or4, missing, or4],
                                                  "family": ["disj", "ip"],
                                                  "k": [3, 4, 10]})
        code, out, _ = run(capsys, ["batch", "--grid", grid])
        assert code == 0
        assert len(degrees) == 2 and len(certificates) == 6
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 18
        assert rows[:6] == rows[12:]
        errors = [row[-1] for row in rows[:6]]
        assert errors[0] == errors[3] == errors[4] == ""
        assert errors[1] == errors[2] == "ValueError: k must be a positive multiple of 3"
        assert errors[5].startswith("SizeGuardExceeded: ip k = 10 exceeds")
        assert all(row[3:-1] == [""] * 7 and row[-1].startswith("FileNotFoundError")
                   for row in rows[6:12])


# functions of arity <= 6 whose degree batch reads without a primal solve
DEGREE_FUNCTIONS = {
    "or2": {"profile": [0, 1, 1]},
    "or4": {"n": 4, "bits": "0" + "1" * 15},
    "or6": {"profile": [0] + [1] * 6},
    "maj5": {"profile": [0, 0, 0, 1, 1, 1]},
    "parity3": {"n": 3, "bits": "01101001"},
    "const3": {"profile": [1, 1, 1, 1]},
    **{f"table{n}": {"n": n, "bits": "".join(map(str, seeded_table(n, 0).table))}
       for n in (4, 5)},
}

# (profile, c) whose reduction plan computes a source degree, source arity 2..6
REDUCE_PROFILES = [
    ("1100001", 8.0), ("10100011", 8.0), ("00100000010001", 8.0),
    ("111111110101000", 8.0), ("100000000110011001", 8.0),
    ("1011111111111101000001110110", 8.0), ("11010001100100", 16.0),
    ("000100000111011001", 16.0),
]


def refuse_call(*args, **kwargs):
    raise AssertionError("a refused function was called")


class TestDegreeFromFarkasSweep:
    """batch and reduce read only the degree, which they take without the
    primal, from the Farkas sweep (on the weights for a symmetric f); it
    must be the degree the primal sweep finds."""

    def test_batch_degrees(self, capsys, monkeypatch, tmp_path):
        paths = {name: write_json(tmp_path, f"{name}.json", payload)
                 for name, payload in DEGREE_FUNCTIONS.items()}
        grid = write_json(tmp_path, "grid.json", {"f": list(paths.values()),
                                                  "family": ["ip"], "k": [2]})
        with monkeypatch.context() as m:
            farkas_only(m)
            code, out, _ = run(capsys, ["batch", "--grid", grid])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[0] for row in rows] == list(paths.values())
        for row in rows:
            assert row[-1] == ""
            want = primal_sweep_result(cli.load_function(row[0]), Fraction(1, 3)).degree
            assert int(row[4]) == want, row[0]

    @pytest.mark.parametrize("bits,c", REDUCE_PROFILES)
    def test_reduce_degree(self, capsys, monkeypatch, tmp_path, bits, c):
        values = [int(b) for b in bits]
        path = write_json(tmp_path, "p.json", {"profile": values})
        with monkeypatch.context() as m:
            farkas_only(m)
            code, out, _ = run(capsys, ["reduce", "--f", path, "--c", str(c)])
        assert code == 0
        plan = json.loads(out)
        ones, arity = plan["ones_pad"], plan["source_arity"]
        assert 2 <= arity <= 6
        source = boolcube.from_profile(values[ones:ones + arity + 1])
        assert plan["degree"] == primal_sweep_result(source, Fraction(1, 3)).degree


class TestDegreeWithoutTableSystem:
    """A symmetric f's degree in batch and reduce comes from the sweep on
    its weights alone: every solve has the weight system's 2(n+1) columns,
    never a table's 2^(n+1), and reduce builds no truth table."""

    def test_batch_symmetric_rows(self, capsys, monkeypatch, tmp_path):
        paths = [write_json(tmp_path, f"{name}.json", payload)
                 for name, payload in DEGREE_FUNCTIONS.items()
                 if not name.startswith("table")]
        grid = write_json(tmp_path, "grid.json", {"f": paths, "family": ["ip"],
                                                  "k": [2]})
        with monkeypatch.context() as m:
            solves = farkas_only(m)
            code, out, _ = run(capsys, ["batch", "--grid", grid])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[4] for row in rows] == ["1", "2", "2", "1", "3", "0"]
        assert all(row[-1] == "" for row in rows)
        assert solves == [solve for row in rows
                          for solve in weight_solves(int(row[3]), int(row[4]))]

    def test_reduce_profiles(self, capsys, monkeypatch, tmp_path):
        with monkeypatch.context() as m:
            solves = farkas_only(m)
            m.setattr(boolcube, "from_profile", refuse_call)
            for bits, c in REDUCE_PROFILES:
                solves.clear()
                path = write_json(tmp_path, "p.json", {"profile": [int(b) for b in bits]})
                code, out, _ = run(capsys, ["reduce", "--f", path, "--c", str(c)])
                plan = json.loads(out)
                assert code == 0 and plan["degree"] >= 1, bits
                assert solves == weight_solves(plan["source_arity"], plan["degree"]), bits


def parser_state(parser):
    """Every action and default of the parser and of each subcommand parser."""
    parsers = {"": parser, **parser._subparsers._group_actions[0].choices}
    return {name: (dict(p._defaults),
                   [(a.option_strings, a.dest, a.default, a.required, a.choices,
                     a.type, a.nargs) for a in p._actions])
            for name, p in parsers.items()}


class TestParserReuse:
    """main builds the parser on its first call and reuses it afterwards."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_sequence_matches_calls_on_their_own(self, capsys, tmp_path, parity2,
                                                 step4):
        argvs = [
            ["simulate", "--protocol", "bcw", "--f", parity2, "--g-family", "disj",
             "--k", "3", "--trials", "30", "--seed", "5"],
            ["specdisc", "--family", "disj", "--k", "6"],
            ["specdisc", "--family", "nope", "--k", "6"],
            ["mainlemma", "--f", parity2, "--family", "ip", "--k", "3"],
            ["simulate", "--protocol", "symand", "--f", step4, "--dense",
             "--trials", "30", "--seed", "5"],
        ]

        def call(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = f"SystemExit({exc.code})"
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        alone = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            alone.append(call(argv))
        cli.build_parser.cache_clear()
        together = [call(argv) for argv in argvs]
        assert cli.build_parser.cache_info().misses == 1
        assert together == alone
        assert [code for code, _, _ in together] == [0, 0, "SystemExit(2)", 0, 0]
        assert together[2][1] == "" and "invalid choice" in together[2][2]

    def test_oracle_shares_parser_without_mutating_it(self, step4):
        parser = cli.build_parser()
        before = parser_state(parser)
        dict_simulate_text(["--protocol", "symand", "--f", step4, "--trials", "10",
                            "--seed", "2"])
        assert cli.build_parser() is parser
        assert parser_state(parser) == before

    def test_import_builds_no_parser(self):
        probe = "import blockcomp.cli as cli; print(cli.build_parser.cache_info().currsize)"
        done = subprocess.run([sys.executable, "-c", probe], env=src_env(),
                              capture_output=True, text=True, check=True)
        assert done.stdout == "0\n"


# Runs main once per argv (a JSON list on argv[1]), silencing stdout, and
# prints the exit codes and whether numpy was ever imported.
NO_NUMPY_PROBE = """
import contextlib, io, json, sys
import blockcomp.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(blockcomp.cli.main(argv))
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


class TestStdlibOnly:
    def test_no_subcommand_imports_numpy(self, tmp_path, or4, parity2, step4, l1_toy):
        g = write_json(tmp_path, "g.json",
                       inner_to_dict(restrict_rows(boolcube.ip_inner(2), [1, 2])))
        grid = write_json(tmp_path, "grid.json", {"f": [parity2], "family": ["ip", "disj"],
                                                  "k": [3]})
        bcw = ["simulate", "--protocol", "bcw", "--f", parity2, "--trials", "5"]
        argvs = [
            ["approxdeg", "--f", or4],
            ["witness", "--f", parity2],
            ["specdisc", "--family", "ip", "--k", "3"],
            ["specdisc", "--family", "disj", "--k", "6"],
            ["knuth", "--k", "6", "--p", "2", "--s", "1"],
            ["mainlemma", "--f", parity2, "--family", "ip", "--k", "3"],
            ["mainlemma", "--f", parity2, "--family", "disj", "--k", "3"],
            ["reduce", "--f", l1_toy, "--k-override", "3", "--check-identity"],
            ["batch", "--grid", grid],
            bcw + ["--g-family", "ip", "--k", "3"],
            bcw + ["--g-family", "disj", "--k", "3"],
            bcw + ["--g", g],
            ["simulate", "--protocol", "symand", "--f", step4, "--trials", "5"],
        ]
        done = subprocess.run([sys.executable, "-c", NO_NUMPY_PROBE, json.dumps(argvs)],
                              env=src_env(), capture_output=True, text=True, check=True)
        assert json.loads(done.stdout) == {"codes": [0] * len(argvs), "numpy": False}


class TestExponentGuards:
    """An exponent past a guard, or one that is not a JSON int, exits 2
    with a message naming it, and negative shift counts never surface."""

    HUGE = 1 << 28

    @pytest.mark.parametrize("k,message", [
        (HUGE, f"error: inner table side 2^{HUGE} exceeds the guard"),
        (-1, "error: inner k must be >= 0, got k = -1"),
        (math.inf, "error: k must be an int, got inf"),
        (1.0, "error: k must be an int, got 1.0"),
        (True, "error: k must be an int, got True"),
        ("1", "error: k must be an int, got '1'")],
        ids=("huge", "negative", "inf", "float", "bool", "str"))
    def test_inner_file(self, capsys, tmp_path, parity2, k, message):
        path = write_json(tmp_path, "g.json", {"k": k, "rows": []})
        code, out, err = run(capsys, ["simulate", "--protocol", "bcw", "--f", parity2,
                                      "--g", path, "--trials", "5"])
        assert (code, out) == (2, "")
        assert err.startswith(message)

    def test_inner_family(self, capsys, parity2):
        code, out, err = run(capsys, ["simulate", "--protocol", "bcw", "--f", parity2,
                                      "--g-family", "ip", "--k", str(self.HUGE)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: inner table side 2^{self.HUGE} exceeds the guard")

    @pytest.mark.parametrize("n", [HUGE, -1], ids=("huge", "negative"))
    def test_bits_file(self, capsys, tmp_path, n):
        path = write_json(tmp_path, "f.json", {"n": n, "bits": "01"})
        code, out, err = run(capsys, ["approxdeg", "--f", path])
        assert (code, out) == (2, "")
        assert err == f"error: bits must be a 0/1 string of length 2^n, n = {n}\n"


class TestInternalErrors:
    def test_pivot_limit_exits_3(self, capsys, monkeypatch, or4):
        from blockcomp import approxdeg
        from blockcomp.simplex import PivotLimitExceeded

        def exceeded(*args, **kwargs):
            raise PivotLimitExceeded("no convergence in 0 pivots")

        monkeypatch.setattr(approxdeg, "solve_feasibility", exceeded)
        code, out, err = run(capsys, ["approxdeg", "--f", or4])
        assert code == 3
        assert out == ""
        assert err.startswith("internal error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,shift", [("approxdeg", -1), ("witness", 1)])
    def test_weight_contradiction_exits_3(self, capsys, monkeypatch, or4, command,
                                          shift):
        """Each output on the weights is checked exactly before it is
        printed.  approxdeg expands the weight polynomial P read off the
        certificate: one off by one at weight 0 misses f and fails that
        check.  witness expands the weight masses psi: one whose mass at
        weight 0 is off by one is no longer orthogonal to the constants and
        fails verify_witness.  OR_4's table is symmetric, so every solve on
        the way has its weight system's 10 columns, not a table's 32."""
        real = approxdeg._farkas

        def shifted(*args):
            solution = real(*args)
            side = 1 if command == "approxdeg" else 0
            if solution[side] is None:
                return solution
            moved = [c + shift * (j == 0) for j, c in enumerate(solution[side])]
            return (solution[0], moved) if side else (moved, solution[1])

        monkeypatch.setattr(approxdeg, "_farkas", shifted)
        solves = farkas_only(monkeypatch)
        code, out, err = run(capsys, [command, "--f", or4])
        assert {columns for columns, _ in solves} == {10}
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: the degree-2 polynomial read off the Farkas "
                              "certificate is -2/3 at 0" if command == "approxdeg" else
                              "internal error: extracted witness failed verification")
        assert "Traceback" not in err

    def test_missing_primal_exits_3(self, capsys, monkeypatch, tmp_path):
        """approxdeg reads its polynomial off the certificate of the Farkas
        sweep's infeasible solve at the degree, on the sweep's points: the
        n+1 weights of a profile, the 2^n inputs of a table.  A certificate
        off by one at the first point puts P more than eps from f there,
        and the exact check fails both alike."""
        real = approxdeg.solve_feasibility

        def shifted(*args, **kwargs):
            x, certificate = real(*args, **kwargs)
            if certificate is not None:
                certificate = [certificate[0] + 1, *certificate[1:]]
            return x, certificate

        monkeypatch.setattr(approxdeg, "solve_feasibility", shifted)
        bits = "".join(map(str, seeded_table(4, 0).table))
        for payload, degree, value in (({"profile": [0, 1, 1, 1, 1]}, 2, 0),
                                       ({"n": 4, "bits": bits}, 3, bits[0])):
            code, out, err = run(capsys, ["approxdeg", "--f",
                                          write_json(tmp_path, "f.json", payload)])
            assert (code, out) == (3, "")
            assert err.startswith(f"internal error: the degree-{degree} polynomial read "
                                  f"off the Farkas certificate is ")
            assert err.endswith(f" at 0, more than 1/3 from {value}\n")

    def test_table_contradiction_exits_3(self, capsys, monkeypatch, tmp_path):
        """A table takes its polynomial from the certificate at the degree the
        Farkas sweep gives; one off its span at x = 0 carries mass on
        characters above the degree, an internal failure."""
        f = seeded_table(4, 0)
        path = write_json(tmp_path, "t.json", {"n": 4, "bits": "".join(map(str, f.table))})
        real = approxdeg.walsh_transform
        monkeypatch.setattr(approxdeg, "walsh_transform",
                            lambda values: real([values[0] + 1] + list(values[1:])))
        code, out, err = run(capsys, ["approxdeg", "--f", path])
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: the degree-3 polynomial read off the Farkas "
                              "certificate expands onto character")
        assert "Traceback" not in err

    def test_failed_witness_check_exits_3(self, capsys, monkeypatch, or4):
        """dual_witness re-verifies its witness; a failed check is an internal
        failure, never exit 1, and nothing is printed."""
        real = approxdeg.verify_witness
        monkeypatch.setattr(approxdeg, "verify_witness", lambda w, f: dataclasses.replace(
            real(w, f), check_a=False))
        code, out, err = run(capsys, ["witness", "--f", or4])
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: extracted witness failed verification")
        assert "Traceback" not in err


class TestDeterminism:
    def test_simulate_byte_identical(self, tmp_path, step4, capsys):
        argvs = ["simulate", "--protocol", "symand", "--f", step4,
                 "--dense", "--trials", "60", "--seed", "11"]
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(argvs + ["--out", str(a)]) == 0
        assert main(argvs + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bcw_byte_identical(self, tmp_path, parity2):
        argvs = ["simulate", "--protocol", "bcw", "--f", parity2,
                 "--g-family", "disj", "--k", "3", "--trials", "60", "--seed", "11"]
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(argvs + ["--out", str(a)]) == 0
        assert main(argvs + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mainlemma_byte_identical(self, tmp_path, parity2):
        argvs = ["mainlemma", "--f", parity2, "--family", "ip", "--k", "2"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(argvs + ["--out", str(a)]) == 0
        assert main(argvs + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().endswith(b"\n")


class TestCertifiedCheckFailures:
    """Exit 1 means a certified check failed, and the report that failed it
    is still printed: one case per check, each made to fail by a patch."""

    def test_mainlemma_norm_above_bound(self, capsys, monkeypatch, or4):
        # ||h|| is 9.3e-14 on this cell, so a slack of even 1e-9 on the
        # comparison would let any bound below it pass
        monkeypatch.setattr(mainlemma, "opnorm_bound", lambda *args: 1e-30)
        code, out, _ = run(capsys, ["mainlemma", "--f", or4,
                                    "--family", "ip", "--k", "9"])
        assert code == 1
        payload = json.loads(out)
        assert payload["h_opnorm_bound"] == 1e-30
        assert 0 < payload["h_opnorm_exact"] < 1e-9

    def test_specdisc_outside_family_bound(self, capsys, monkeypatch):
        real = specdisc.family_bound
        monkeypatch.setattr(specdisc, "family_bound",
                            lambda *args: (*real(*args)[:2], False))
        code, out, _ = run(capsys, ["specdisc", "--family", "ip", "--k", "3"])
        assert code == 1
        assert json.loads(out)["within_bound"] is False
        assert '"within_bound": false' in out

    def test_reduce_identity_fails(self, capsys, monkeypatch, l1_toy):
        monkeypatch.setattr(applications, "padding_identity_check", lambda *args: False)
        code, out, _ = run(capsys, ["reduce", "--f", l1_toy,
                                    "--k-override", "3", "--check-identity"])
        assert code == 1
        assert json.loads(out)["identity_holds"] is False
        assert '"identity_holds": false' in out

    def test_simulate_bcw_wrong_output(self, capsys, monkeypatch, parity2):
        real = protocols.CompiledBcw.run

        def flipped(self, z, seed=None):
            out, ledger = real(self, z, seed)
            return 1 - out, ledger

        monkeypatch.setattr(protocols.CompiledBcw, "run", flipped)
        code, out, _ = run(capsys, ["simulate", "--protocol", "bcw", "--f", parity2,
                                    "--g-family", "and", "--trials", "20",
                                    "--inject-error", "0"])
        assert code == 1
        lines = out.strip().splitlines()
        assert len(lines) == 21
        assert last_json(out)["errors"] == 20
        assert all(json.loads(line)["correct"] is False for line in lines[:-1])
